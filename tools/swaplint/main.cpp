// swaplint CLI: lint files or directory trees and report violations.
//
//   swaplint [--list-rules] [--baseline <file>] [--write-baseline <file>]
//            [--coverage <dir>] <file-or-dir>...
//
// Directories are walked recursively for .h/.cc/.cpp files. `--coverage`
// registers a directory of chaos-table sources for the fault-point-coverage
// check (scanned for armed points, not linted). `--baseline` filters known
// findings so only new ones fail the sweep; `--write-baseline` regenerates
// that file from the current findings. Exit status is 0 when the tree is
// clean (after baseline filtering), 1 when any rule fired, 2 on usage/IO
// errors. Run via `ctest -L lint` or `scripts/check.sh default -L lint`.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool ReadFile(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  std::vector<fs::path> coverage_roots;
  std::string baseline_path;
  std::string write_baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const swaplint::RuleInfo& rule : swaplint::Rules()) {
        std::cout << rule.name << ": " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: swaplint [--list-rules] [--baseline <file>] "
                   "[--write-baseline <file>] [--coverage <dir>] "
                   "<file-or-dir>...\n";
      return 0;
    }
    if (arg == "--baseline" || arg == "--write-baseline" ||
        arg == "--coverage") {
      if (i + 1 >= argc) {
        std::cerr << "swaplint: " << arg << " needs an argument\n";
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--baseline") baseline_path = value;
      else if (arg == "--write-baseline") write_baseline_path = value;
      else coverage_roots.emplace_back(value);
      continue;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    std::cerr << "swaplint: no inputs (try --help)\n";
    return 2;
  }

  swaplint::Linter linter;
  int files = 0;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry :
           fs::recursive_directory_iterator(root, ec)) {
        if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
        std::string content;
        if (!ReadFile(entry.path(), content)) {
          std::cerr << "swaplint: cannot read " << entry.path() << "\n";
          return 2;
        }
        linter.AddFile(entry.path().generic_string(), content);
        ++files;
      }
    } else if (fs::is_regular_file(root, ec)) {
      std::string content;
      if (!ReadFile(root, content)) {
        std::cerr << "swaplint: cannot read " << root << "\n";
        return 2;
      }
      linter.AddFile(root.generic_string(), content);
      ++files;
    } else {
      std::cerr << "swaplint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  for (const fs::path& root : coverage_roots) {
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::cerr << "swaplint: --coverage needs a directory: " << root << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      std::string content;
      if (!ReadFile(entry.path(), content)) {
        std::cerr << "swaplint: cannot read " << entry.path() << "\n";
        return 2;
      }
      linter.AddChaosFile(entry.path().generic_string(), content);
    }
  }

  std::vector<swaplint::Diagnostic> diags = linter.Run();

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::cerr << "swaplint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    out << swaplint::SerializeBaseline(diags);
    std::cerr << "swaplint: wrote " << diags.size() << " finding(s) to "
              << write_baseline_path << "\n";
    return 0;
  }

  std::size_t baselined = 0;
  if (!baseline_path.empty()) {
    std::string text;
    if (!ReadFile(baseline_path, text)) {
      std::cerr << "swaplint: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    const std::set<std::string> baseline = swaplint::ParseBaseline(text);
    baselined = swaplint::ApplyBaseline(diags, baseline);
    // Stale entries are informational: they mean a baselined finding was
    // fixed and the baseline can shrink.
    if (baseline.size() > baselined) {
      std::cerr << "swaplint: note: " << (baseline.size() - baselined)
                << " stale baseline entrie(s) in " << baseline_path << "\n";
    }
  }

  for (const swaplint::Diagnostic& d : diags) {
    std::cerr << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
  }
  std::cerr << "swaplint: " << diags.size() << " issue(s) across " << files
            << " file(s)";
  if (baselined > 0) std::cerr << " (" << baselined << " baselined)";
  std::cerr << "\n";
  return diags.empty() ? 0 : 1;
}
