#include "ssb/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <filesystem>
#include <sstream>

namespace pmemolap::ssb {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(*Generate({.scale_factor = 0.01, .seed = 8}));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* CsvTest::db_ = nullptr;

template <typename Row>
bool RowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  // Field-wise comparison (memcmp would compare padding bytes).
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

TEST_F(CsvTest, DateRoundTrip) {
  std::stringstream stream;
  WriteCsv(db_->date, stream);
  auto parsed = ReadDateCsv(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(RowsEqual(db_->date, parsed.value()));
}

TEST_F(CsvTest, CustomerRoundTrip) {
  std::stringstream stream;
  WriteCsv(db_->customer, stream);
  auto parsed = ReadCustomerCsv(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(RowsEqual(db_->customer, parsed.value()));
}

TEST_F(CsvTest, SupplierRoundTrip) {
  std::stringstream stream;
  WriteCsv(db_->supplier, stream);
  auto parsed = ReadSupplierCsv(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(RowsEqual(db_->supplier, parsed.value()));
}

TEST_F(CsvTest, PartRoundTrip) {
  std::stringstream stream;
  WriteCsv(db_->part, stream);
  auto parsed = ReadPartCsv(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(RowsEqual(db_->part, parsed.value()));
}

TEST_F(CsvTest, LineorderRoundTripAllFields) {
  std::stringstream stream;
  WriteCsv(db_->lineorder, stream);
  auto parsed = ReadLineorderCsv(stream);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), db_->lineorder.size());
  for (size_t i = 0; i < parsed->size(); i += 571) {
    const LineorderRow& a = db_->lineorder[i];
    const LineorderRow& b = (*parsed)[i];
    EXPECT_EQ(a.orderkey, b.orderkey);
    EXPECT_EQ(a.linenumber, b.linenumber);
    EXPECT_EQ(a.custkey, b.custkey);
    EXPECT_EQ(a.partkey, b.partkey);
    EXPECT_EQ(a.suppkey, b.suppkey);
    EXPECT_EQ(a.orderdate, b.orderdate);
    EXPECT_EQ(a.commitdate, b.commitdate);
    EXPECT_EQ(a.quantity, b.quantity);
    EXPECT_EQ(a.discount, b.discount);
    EXPECT_EQ(a.extendedprice, b.extendedprice);
    EXPECT_EQ(a.ordtotalprice, b.ordtotalprice);
    EXPECT_EQ(a.revenue, b.revenue);
    EXPECT_EQ(a.supplycost, b.supplycost);
    EXPECT_EQ(a.tax, b.tax);
    EXPECT_EQ(a.shipmode, b.shipmode);
    EXPECT_EQ(a.priority, b.priority);
  }
}

TEST_F(CsvTest, MalformedInputNamesLine) {
  std::stringstream stream("1|2|3\n19940101|199401|1994|1|1|1\nbogus\n");
  auto parsed = ReadDateCsv(stream);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos);

  std::stringstream bad_tail(
      "19940101|199401|1994|1|1|1\nnot|a|date|row|x|y\n");
  parsed = ReadDateCsv(bad_tail);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST_F(CsvTest, RangeOverflowRejected) {
  // nation is uint8; 999 overflows.
  std::stringstream stream("1|999|1|1|1\n");
  EXPECT_FALSE(ReadCustomerCsv(stream).ok());
}

TEST_F(CsvTest, EmptyLinesSkipped) {
  std::stringstream stream("\n1|2|3|4|0\n\n");
  auto parsed = ReadCustomerCsv(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST_F(CsvTest, ExportImportDatabase) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pmemolap_csv_test";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(ExportDatabase(*db_, dir.string()).ok());
  auto imported = ImportDatabase(dir.string());
  ASSERT_TRUE(imported.ok());
  EXPECT_TRUE(RowsEqual(db_->date, imported->date));
  EXPECT_TRUE(RowsEqual(db_->customer, imported->customer));
  EXPECT_TRUE(RowsEqual(db_->supplier, imported->supplier));
  EXPECT_TRUE(RowsEqual(db_->part, imported->part));
  EXPECT_EQ(db_->lineorder.size(), imported->lineorder.size());
  std::filesystem::remove_all(dir);
}

// A lineorder row whose key joins no dimension row would make every later
// query index the engine's dense key maps out of range: the import
// refuses the whole database instead.
TEST_F(CsvTest, ImportRejectsDanglingForeignKeys) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              "pmemolap_csv_dangling_key_test";
  std::filesystem::create_directories(dir);
  Database db = *db_;
  db.lineorder.resize(100);
  db.lineorder[5].custkey = 1 << 30;
  ASSERT_TRUE(ExportDatabase(db, dir.string()).ok());
  auto imported = ImportDatabase(dir.string());
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(imported.status().message().find("lineorder row 5"),
            std::string::npos)
      << imported.status().ToString();
}

TEST_F(CsvTest, ImportMissingDirectoryFails) {
  auto imported = ImportDatabase("/nonexistent/pmemolap");
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pmemolap::ssb
