#include "util/table.h"

#include <gtest/gtest.h>

namespace swapserve {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Model", "Total (s)"});
  t.AddRow({"DS-14B", "82.39"});
  t.AddRow({"L3.2-1B", "34.14"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| Model   |"), std::string::npos);
  EXPECT_NE(out.find("| DS-14B  |"), std::string::npos);
  EXPECT_NE(out.find("82.39"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::Num(0.5, 3), "0.500");
}

TEST(TablePrinterTest, EmptyTableStillPrintsHeader) {
  TablePrinter t({"only"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("only"), std::string::npos);
}

}  // namespace
}  // namespace swapserve
