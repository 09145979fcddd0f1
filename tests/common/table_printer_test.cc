#include "common/table_printer.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter table({"Threads", "GB/s"});
  table.AddRow({"1", "4.4"});
  table.AddRow({"18", "40.0"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Threads | GB/s"), std::string::npos);
  EXPECT_NE(out.find("18      | 40.0"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("--------+-----"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  std::string out = table.ToString();
  // Three columns rendered even though the row had one cell.
  EXPECT_NE(out.find("1 |   |  "), std::string::npos);
}

TEST(TablePrinterTest, TruncatesLongRows) {
  TablePrinter table({"a"});
  table.AddRow({"1", "spurious"});
  std::string out = table.ToString();
  EXPECT_EQ(out.find("spurious"), std::string::npos);
}

TEST(TablePrinterTest, ColumnWidthFollowsWidestCell) {
  TablePrinter table({"x"});
  table.AddRow({"wide-cell-content"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("wide-cell-content"), std::string::npos);
  EXPECT_NE(out.find("-----------------"), std::string::npos);
}

TEST(TablePrinterTest, CellFormatting) {
  EXPECT_EQ(TablePrinter::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Cell(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::Cell(uint64_t{42}), "42");
  EXPECT_EQ(TablePrinter::Cell(-7.0, 0), "-7");
}

}  // namespace
}  // namespace pmemolap
