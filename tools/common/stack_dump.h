/* The stack-dump file format shared by the LD_PRELOAD tools in tools/.
 *
 * A dump is a "# maps" line and a copy of /proc/self/maps, then one header
 * line of the tool's own ("# samples ...", "# total=..."), then one line
 * per stack: optional leading fields of the tool's, then hex return
 * addresses, innermost first. scripts/symbolize.py reads it back.
 *
 * Both tools record stacks with glibc's backtrace(), whose first call loads
 * the unwinder and allocates; StackDumpWarmUnwinder() makes that call from
 * a tool's constructor, so later calls only walk unwind tables.
 */
#ifndef SWAPSERVE_TOOLS_COMMON_STACK_DUMP_H_
#define SWAPSERVE_TOOLS_COMMON_STACK_DUMP_H_

#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>

static void StackDumpWarmUnwinder(void) {
  void* warm[4];
  (void)backtrace(warm, 4);
}

/* Maps `bytes` of zeroed memory up front, so recording never allocates;
 * NULL (after a message naming `what`) when the mapping fails. */
static void* StackDumpMap(size_t bytes, const char* what) {
  void* mem = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    perror(what);
    return NULL;
  }
  return mem;
}

/* Opens the file named by the environment variable `env` (else `fallback`)
 * and writes the maps section; the caller writes its header line and
 * stacks and closes the file. NULL when the file cannot be opened. */
static FILE* StackDumpOpen(const char* env, const char* fallback) {
  const char* path = getenv(env);
  FILE* out = fopen(path != NULL ? path : fallback, "w");
  if (out == NULL) {
    perror(path != NULL ? path : fallback);
    return NULL;
  }
  fputs("# maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  return out;
}

/* Writes one stack's addresses, each after a space, and ends the line. */
static void StackDumpFrames(FILE* out, const uintptr_t* frames, size_t n) {
  for (size_t i = 0; i < n; ++i) fprintf(out, " %lx", (unsigned long)frames[i]);
  fputc('\n', out);
}

#endif /* SWAPSERVE_TOOLS_COMMON_STACK_DUMP_H_ */
