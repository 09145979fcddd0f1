#include "ssb/dbgen.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

namespace pmemolap::ssb {
namespace {

TEST(DbgenTest, RejectsNonPositiveScaleFactor) {
  EXPECT_FALSE(Generate({.scale_factor = 0.0}).ok());
  EXPECT_FALSE(Generate({.scale_factor = -1.0}).ok());
}

TEST(DbgenTest, CardinalitiesMatchSpec) {
  Cardinalities sf1 = CardinalitiesFor(1.0);
  EXPECT_EQ(sf1.lineorder, 6'000'000u);
  EXPECT_EQ(sf1.customer, 30'000u);
  EXPECT_EQ(sf1.supplier, 2'000u);
  EXPECT_EQ(sf1.part, 200'000u);
  EXPECT_EQ(sf1.date, 2557u);

  // Part grows with 1 + floor(log2(sf)).
  EXPECT_EQ(CardinalitiesFor(2.0).part, 400'000u);
  EXPECT_EQ(CardinalitiesFor(100.0).part, 1'400'000u);
  // Lineorder scales linearly.
  EXPECT_EQ(CardinalitiesFor(100.0).lineorder, 600'000'000u);
}

TEST(DbgenTest, GeneratedCountsMatchCardinalities) {
  auto db = Generate({.scale_factor = 0.02, .seed = 1});
  ASSERT_TRUE(db.ok());
  Cardinalities cards = CardinalitiesFor(0.02);
  EXPECT_EQ(db->lineorder.size(), cards.lineorder);
  EXPECT_EQ(db->customer.size(), cards.customer);
  EXPECT_EQ(db->supplier.size(), cards.supplier);
  EXPECT_EQ(db->part.size(), cards.part);
  EXPECT_EQ(db->date.size(), cards.date);
}

TEST(DbgenTest, DeterministicForSameSeed) {
  auto a = Generate({.scale_factor = 0.01, .seed = 9});
  auto b = Generate({.scale_factor = 0.01, .seed = 9});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->lineorder.size(), b->lineorder.size());
  for (size_t i = 0; i < a->lineorder.size(); i += 997) {
    EXPECT_EQ(a->lineorder[i].revenue, b->lineorder[i].revenue) << i;
    EXPECT_EQ(a->lineorder[i].orderdate, b->lineorder[i].orderdate) << i;
  }
}

TEST(DbgenTest, DifferentSeedsDiffer) {
  auto a = Generate({.scale_factor = 0.01, .seed = 1});
  auto b = Generate({.scale_factor = 0.01, .seed = 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int differing = 0;
  for (size_t i = 0; i < a->lineorder.size(); i += 101) {
    if (a->lineorder[i].revenue != b->lineorder[i].revenue) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// FNV-1a over every field's value, row by row. Raw row bytes are not
// digested: LineorderRow's padding is indeterminate.
class FieldDigest {
 public:
  void Add(int64_t value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (unsigned char byte : bytes) hash_ = (hash_ ^ byte) * 0x100000001B3ULL;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct TableDigests {
  uint64_t date = 0;
  uint64_t customer = 0;
  uint64_t supplier = 0;
  uint64_t part = 0;
  uint64_t lineorder = 0;
};

TableDigests DigestTables(const Database& db) {
  FieldDigest date, customer, supplier, part, lineorder;
  for (const DateRow& r : db.date) {
    for (int64_t v : {int64_t{r.datekey}, int64_t{r.yearmonthnum},
                      int64_t{r.year}, int64_t{r.monthnuminyear},
                      int64_t{r.daynuminweek}, int64_t{r.weeknuminyear}}) {
      date.Add(v);
    }
  }
  for (const CustomerRow& r : db.customer) {
    for (int64_t v : {int64_t{r.custkey}, int64_t{r.nation},
                      int64_t{r.region}, int64_t{r.city},
                      int64_t{r.mktsegment}}) {
      customer.Add(v);
    }
  }
  for (const SupplierRow& r : db.supplier) {
    for (int64_t v : {int64_t{r.suppkey}, int64_t{r.nation},
                      int64_t{r.region}, int64_t{r.city}}) {
      supplier.Add(v);
    }
  }
  for (const PartRow& r : db.part) {
    for (int64_t v : {int64_t{r.partkey}, int64_t{r.mfgr},
                      int64_t{r.category}, int64_t{r.brand},
                      int64_t{r.color}, int64_t{r.size}}) {
      part.Add(v);
    }
  }
  for (const LineorderRow& r : db.lineorder) {
    for (int64_t v :
         {r.orderkey, int64_t{r.linenumber}, int64_t{r.custkey},
          int64_t{r.partkey}, int64_t{r.suppkey}, int64_t{r.orderdate},
          int64_t{r.commitdate}, int64_t{r.quantity}, int64_t{r.discount},
          int64_t{r.extendedprice}, int64_t{r.ordtotalprice},
          int64_t{r.revenue}, int64_t{r.supplycost}, int64_t{r.tax},
          int64_t{r.shipmode}, int64_t{r.priority}}) {
      lineorder.Add(v);
    }
  }
  return {date.value(), customer.value(), supplier.value(), part.value(),
          lineorder.value()};
}

// Pins the generator's output field by field, so a faster generator must
// reproduce every table exactly (digests taken from the row-at-a-time
// generator this one replaced).
TEST(DbgenTest, EveryFieldOfEveryTableIsPinned) {
  struct Pinned {
    DbgenConfig config;
    TableDigests digests;
  };
  const Pinned kPinned[] = {
      {{.scale_factor = 0.001, .seed = 1, .key_skew = 0.0},
       {13076066044834176170ULL, 14763365189044529929ULL,
        3958555484166942813ULL, 9500918072910709147ULL,
        1441034973956208887ULL}},
      {{.scale_factor = 0.01, .seed = 42, .key_skew = 0.0},
       {13076066044834176170ULL, 12225851124502407755ULL,
        4267279568929924978ULL, 6484726422662198001ULL,
        15688992365124239932ULL}},
      {{.scale_factor = 0.01, .seed = 2, .key_skew = 0.5},
       {13076066044834176170ULL, 3424181005629371355ULL,
        17852440920230064668ULL, 14446557361376976639ULL,
        13844567752309239858ULL}},
      {{.scale_factor = 0.05, .seed = 42, .key_skew = 1.1},
       {13076066044834176170ULL, 12265573213414443437ULL,
        4190623797912619622ULL, 8806812898501322010ULL,
        11851959086855350413ULL}},
  };
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("sf " + std::to_string(pinned.config.scale_factor) +
                 " seed " + std::to_string(pinned.config.seed) + " skew " +
                 std::to_string(pinned.config.key_skew));
    Result<Database> db = Generate(pinned.config);
    ASSERT_TRUE(db.ok());
    const TableDigests got = DigestTables(*db);
    EXPECT_EQ(got.date, pinned.digests.date);
    EXPECT_EQ(got.customer, pinned.digests.customer);
    EXPECT_EQ(got.supplier, pinned.digests.supplier);
    EXPECT_EQ(got.part, pinned.digests.part);
    EXPECT_EQ(got.lineorder, pinned.digests.lineorder);
  }
}

class DbgenInvariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(*Generate({.scale_factor = 0.02, .seed = 3}));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* DbgenInvariantTest::db_ = nullptr;

TEST_F(DbgenInvariantTest, DateDimensionIsRealCalendar) {
  EXPECT_EQ(db_->date.front().datekey, 19920101);
  EXPECT_EQ(db_->date.back().datekey, 19981231);
  // 1992 and 1996 are leap years.
  std::set<int32_t> keys;
  for (const DateRow& d : db_->date) {
    keys.insert(d.datekey);
    EXPECT_GE(d.year, 1992);
    EXPECT_LE(d.year, 1998);
    EXPECT_GE(d.monthnuminyear, 1);
    EXPECT_LE(d.monthnuminyear, 12);
    EXPECT_GE(d.daynuminweek, 1);
    EXPECT_LE(d.daynuminweek, 7);
    EXPECT_GE(d.weeknuminyear, 1);
    EXPECT_LE(d.weeknuminyear, 53);
    EXPECT_EQ(d.yearmonthnum, d.year * 100 + d.monthnuminyear);
  }
  EXPECT_EQ(keys.size(), db_->date.size());  // unique datekeys
  EXPECT_TRUE(keys.count(19920229));         // leap day
  EXPECT_TRUE(keys.count(19960229));
  EXPECT_FALSE(keys.count(19930229));
}

TEST_F(DbgenInvariantTest, DimensionKeysAreDenseFromOne) {
  for (size_t i = 0; i < db_->customer.size(); ++i) {
    EXPECT_EQ(db_->customer[i].custkey, static_cast<int32_t>(i + 1));
  }
  for (size_t i = 0; i < db_->supplier.size(); ++i) {
    EXPECT_EQ(db_->supplier[i].suppkey, static_cast<int32_t>(i + 1));
  }
  for (size_t i = 0; i < db_->part.size(); ++i) {
    EXPECT_EQ(db_->part[i].partkey, static_cast<int32_t>(i + 1));
  }
}

TEST_F(DbgenInvariantTest, GeoAttributesConsistent) {
  for (const CustomerRow& c : db_->customer) {
    EXPECT_LT(c.nation, kNumNations);
    EXPECT_EQ(c.region, RegionOfNation(c.nation));
    EXPECT_LT(c.city, kCitiesPerNation);
  }
  for (const SupplierRow& s : db_->supplier) {
    EXPECT_EQ(s.region, RegionOfNation(s.nation));
  }
}

TEST_F(DbgenInvariantTest, PartHierarchyInRange) {
  for (const PartRow& p : db_->part) {
    EXPECT_GE(p.mfgr, 1);
    EXPECT_LE(p.mfgr, kNumMfgrs);
    EXPECT_GE(p.category, 1);
    EXPECT_LE(p.category, kCategoriesPerMfgr);
    EXPECT_GE(p.brand, 1);
    EXPECT_LE(p.brand, kBrandsPerCategory);
  }
}

TEST_F(DbgenInvariantTest, LineorderReferentialIntegrity) {
  for (const LineorderRow& lo : db_->lineorder) {
    EXPECT_GE(lo.custkey, 1);
    EXPECT_LE(lo.custkey, static_cast<int32_t>(db_->customer.size()));
    EXPECT_GE(lo.suppkey, 1);
    EXPECT_LE(lo.suppkey, static_cast<int32_t>(db_->supplier.size()));
    EXPECT_GE(lo.partkey, 1);
    EXPECT_LE(lo.partkey, static_cast<int32_t>(db_->part.size()));
  }
}

TEST_F(DbgenInvariantTest, LineorderValueDomains) {
  for (const LineorderRow& lo : db_->lineorder) {
    EXPECT_GE(lo.quantity, 1);
    EXPECT_LE(lo.quantity, 50);
    EXPECT_GE(lo.discount, 0);
    EXPECT_LE(lo.discount, 10);
    EXPECT_GT(lo.extendedprice, 0);
    EXPECT_EQ(lo.revenue, lo.extendedprice * (100 - lo.discount) / 100);
    EXPECT_GT(lo.supplycost, 0);
    EXPECT_LT(lo.supplycost, lo.extendedprice);
    EXPECT_GE(lo.tax, 0);
    EXPECT_LE(lo.tax, 8);
  }
}

TEST_F(DbgenInvariantTest, OrdersGroupConsecutiveLines) {
  int64_t prev_order = 0;
  int prev_line = 0;
  for (const LineorderRow& lo : db_->lineorder) {
    if (lo.orderkey == prev_order) {
      EXPECT_EQ(lo.linenumber, prev_line + 1);
    } else {
      EXPECT_EQ(lo.orderkey, prev_order + 1);
      EXPECT_EQ(lo.linenumber, 1);
    }
    EXPECT_LE(lo.linenumber, 7);
    prev_order = lo.orderkey;
    prev_line = lo.linenumber;
  }
}

TEST_F(DbgenInvariantTest, OrderDatesAreValidDateKeys) {
  std::set<int32_t> keys;
  for (const DateRow& d : db_->date) keys.insert(d.datekey);
  for (const LineorderRow& lo : db_->lineorder) {
    EXPECT_TRUE(keys.count(lo.orderdate)) << lo.orderdate;
    EXPECT_TRUE(keys.count(lo.commitdate)) << lo.commitdate;
  }
}

TEST_F(DbgenInvariantTest, FactBytesReflectRowSize) {
  EXPECT_EQ(db_->FactBytes(), db_->lineorder.size() * 128);
}

}  // namespace
}  // namespace pmemolap::ssb
