#include "ssb/column_store.h"

#include <gtest/gtest.h>

#include "ssb/dbgen.h"

namespace pmemolap::ssb {
namespace {

class ColumnStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(*Generate({.scale_factor = 0.01, .seed = 12}));
    store_ = new ColumnStore(db_->lineorder);
  }
  static void TearDownTestSuite() {
    delete store_;
    delete db_;
    store_ = nullptr;
    db_ = nullptr;
  }
  static Database* db_;
  static ColumnStore* store_;
};

Database* ColumnStoreTest::db_ = nullptr;
ColumnStore* ColumnStoreTest::store_ = nullptr;

TEST_F(ColumnStoreTest, SizesMatch) {
  EXPECT_EQ(store_->size(), db_->lineorder.size());
  EXPECT_FALSE(store_->empty());
  EXPECT_TRUE(ColumnStore().empty());
}

TEST_F(ColumnStoreTest, ColumnsMirrorRows) {
  using C = LineorderColumn;
  for (size_t i = 0; i < store_->size(); i += 397) {
    const LineorderRow& row = db_->lineorder[i];
    EXPECT_EQ(store_->column(C::kOrderdate)[i], row.orderdate);
    EXPECT_EQ(store_->column(C::kCustkey)[i], row.custkey);
    EXPECT_EQ(store_->column(C::kPartkey)[i], row.partkey);
    EXPECT_EQ(store_->column(C::kSuppkey)[i], row.suppkey);
    EXPECT_EQ(store_->column(C::kQuantity)[i], row.quantity);
    EXPECT_EQ(store_->column(C::kDiscount)[i], row.discount);
    EXPECT_EQ(store_->column(C::kExtendedprice)[i], row.extendedprice);
    EXPECT_EQ(store_->column(C::kRevenue)[i], row.revenue);
    EXPECT_EQ(store_->column(C::kSupplycost)[i], row.supplycost);
  }
}

}  // namespace
}  // namespace pmemolap::ssb
