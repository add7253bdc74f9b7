#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/status.h"

namespace swapserve {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SWAP_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  SWAP_CHECK_MSG(row.size() == headers_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << " " << row[i] << std::string(widths[i] - row[i].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string TablePrinter::ToString() const {
  std::ostringstream oss;
  Print(oss);
  return oss.str();
}

}  // namespace swapserve
