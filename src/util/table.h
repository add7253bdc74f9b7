// ASCII table rendering for benchmark output.
//
// Every bench binary prints the same rows the paper reports; TablePrinter
// gives those rows aligned columns.

#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace swapserve {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  // All rows must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  // Convenience: format doubles with fixed precision.
  static std::string Num(double v, int precision = 2);

  void Print(std::ostream& os) const;
  std::string ToString() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace swapserve
