"""Reads and symbolizes the stack dumps of the LD_PRELOAD tools in tools/.

scripts/profile_e2e.sh (tools/sigprof) and scripts/alloc_e2e.sh
(tools/alloccount) import it. A dump (tools/common/stack_dump.h) is a copy
of /proc/self/maps, one header line of the tool's, then one stack per line;
this module turns each stack into its call chain with `addr2line -i`,
inlined frames included.
"""
import collections
import os
import re
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_dump(path):
    """(maps, header, rows): the executable mappings as (lo, hi, offset,
    module), the tool's header line without its "# ", and each stack line
    split into fields."""
    maps, header, rows = [], None, []
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                continue
            if line.startswith("# "):
                header = line[2:].strip()
            elif header is None:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    lo, hi = (int(v, 16) for v in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line.strip():
                rows.append(line.split())
    return maps, header, rows


def _is_pie(module, cache={}):
    if module not in cache:
        with open(module, "rb") as elf:
            header = elf.read(18)
        cache[module] = header[16] == 3  # ET_DYN
    return cache[module]


def _locate(maps, addr):
    for lo, hi, offset, module in maps:
        if lo <= addr < hi:
            return module, (addr - lo + offset) if _is_pie(module) else addr
    return None, addr


def _bare(function, where):
    """Debug info names some frames by their bare name only: a coroutine
    body ("SwapOut") and an internal-linkage function inlined into another.
    Such a frame from this repo is named swapserve::<dirs>::Name@file: the
    file's directories stand for its namespace (src/ckpt/... is
    swapserve::ckpt, bench/e2e/... is swapserve::bench::e2e) and the file
    tells two such frames apart. Any other frame is returned as it is."""
    if "::" in function or "(" in function or function == "main" or \
            not where.startswith(ROOT + os.sep):
        return function
    *dirs, file = os.path.relpath(where, ROOT).split(os.sep)
    if dirs[:1] == ["src"]:
        dirs = dirs[1:]
    namespace = "".join(f"{d}::" for d in dirs)
    return f"swapserve::{namespace}{function}@{file}"


def symbolize(maps, stacks, pc_first=False):
    """Each stack's chain of (function, line), innermost inline level first;
    an outer level's line is where it calls the level inside it. Every
    address is a return address, whose call instruction is looked up,
    except a stack's first when `pc_first` (an interrupted PC)."""
    by_module = collections.defaultdict(set)
    located = []
    for stack in stacks:
        keys = []
        for depth, addr in enumerate(stack):
            module, rel = _locate(
                maps, addr if pc_first and depth == 0 else addr - 1)
            keys.append((module, rel))
            if module is not None:
                by_module[module].add(rel)
        located.append(keys)

    names = {}
    for module, rels in by_module.items():
        proc = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", module],
            input="\n".join(hex(r) for r in sorted(rels)),
            capture_output=True, text=True, check=True)
        current, chain, function = None, [], None
        for line in proc.stdout.splitlines():
            if line.startswith("0x") and function is None:
                if current is not None:
                    names[(module, current)] = chain
                current, chain = int(line, 16), []
            elif function is None:
                function = line
            else:
                where, _, at = \
                    line.split(" (discriminator")[0].rpartition(":")
                chain.append((_bare(function, where),
                              int(at) if at.isdigit() else 0))
                function = None
        if current is not None:
            names[(module, current)] = chain

    chains = []
    for keys in located:
        chain = []
        for key in keys:
            chain.extend(names.get(key, [("??", 0)]))
        chains.append(chain)
    return chains


OPERATORS = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\))")


def qualified(function):
    """The function's own qualified name: templates, parameter lists and
    return type dropped."""
    s = OPERATORS.sub("operator", function).split(" [clone")[0]
    out, angle, paren = [], 0, 0
    for ch in s:
        if ch == "<":
            angle += 1
        elif ch == ">" and angle:
            angle -= 1
        elif ch == "(":
            paren += 1
        elif ch == ")" and paren:
            paren -= 1
        elif not angle and not paren:
            out.append(ch)
    tokens = [t for t in "".join(out).split() if "::" in t]
    return tokens[-1] if tokens else function


def under_run(chain):
    """Whether the stack was taken under sim::Simulation::Run."""
    return any("swapserve::sim::Simulation::Run(" in fn for fn, _ in chain)
