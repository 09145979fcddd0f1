#include "ssb/queries.h"

#include <gtest/gtest.h>

#include "ssb/dbgen.h"
#include "ssb/reference.h"

namespace pmemolap::ssb {
namespace {

TEST(QueriesTest, NamesAndFlights) {
  EXPECT_EQ(QueryName(QueryId::kQ1_1), "Q1.1");
  EXPECT_EQ(QueryName(QueryId::kQ4_3), "Q4.3");
  EXPECT_EQ(FlightOf(QueryId::kQ1_3), 1);
  EXPECT_EQ(FlightOf(QueryId::kQ2_1), 2);
  EXPECT_EQ(FlightOf(QueryId::kQ3_4), 3);
  EXPECT_EQ(FlightOf(QueryId::kQ4_1), 4);
}

TEST(QueriesTest, AllQueriesHas13InOrder) {
  const auto& all = AllQueries();
  ASSERT_EQ(all.size(), 13u);
  EXPECT_EQ(all.front(), QueryId::kQ1_1);
  EXPECT_EQ(all.back(), QueryId::kQ4_3);
  int prev_flight = 0;
  for (QueryId query : all) {
    EXPECT_GE(FlightOf(query), prev_flight);
    prev_flight = FlightOf(query);
  }
}

TEST(QueriesTest, OutputRowsAndEquality) {
  QueryOutput scalar;
  scalar.scalar = true;
  scalar.value = 42;
  EXPECT_EQ(scalar.rows(), 1u);

  QueryOutput grouped;
  grouped.groups[{1993, 1201, 0}] = 100;
  grouped.groups[{1994, 1202, 0}] = 200;
  EXPECT_EQ(grouped.rows(), 2u);

  QueryOutput reordered;
  reordered.groups[{1994, 1202, 0}] = 200;
  reordered.groups[{1993, 1201, 0}] = 100;
  EXPECT_TRUE(grouped == reordered);
  EXPECT_FALSE(grouped == scalar);
}

class ReferenceSemanticsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(*Generate({.scale_factor = 0.05, .seed = 21}));
    ref_ = new ReferenceExecutor(db_);
  }
  static void TearDownTestSuite() {
    delete ref_;
    delete db_;
    ref_ = nullptr;
    db_ = nullptr;
  }
  static Database* db_;
  static ReferenceExecutor* ref_;
};

Database* ReferenceSemanticsTest::db_ = nullptr;
ReferenceExecutor* ReferenceSemanticsTest::ref_ = nullptr;

TEST_F(ReferenceSemanticsTest, Flight1AreScalars) {
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ1_2, QueryId::kQ1_3}) {
    QueryOutput out = ref_->Execute(query);
    EXPECT_TRUE(out.scalar) << QueryName(query);
    EXPECT_GT(out.value, 0) << QueryName(query);
  }
}

TEST_F(ReferenceSemanticsTest, Flight1SelectivityOrdering) {
  // Q1.1 filters a whole year, Q1.2 one month, Q1.3 one week: the revenue
  // sums must shrink accordingly.
  int64_t q11 = ref_->Execute(QueryId::kQ1_1).value;
  int64_t q12 = ref_->Execute(QueryId::kQ1_2).value;
  int64_t q13 = ref_->Execute(QueryId::kQ1_3).value;
  EXPECT_GT(q11, q12);
  EXPECT_GT(q12, q13);
}

TEST_F(ReferenceSemanticsTest, Q1_1MatchesManualScan) {
  // Independent re-derivation with a date set built by hand.
  std::set<int32_t> dates_1993;
  for (const DateRow& d : db_->date) {
    if (d.year == 1993) dates_1993.insert(d.datekey);
  }
  int64_t expected = 0;
  for (const LineorderRow& lo : db_->lineorder) {
    if (dates_1993.count(lo.orderdate) && lo.discount >= 1 &&
        lo.discount <= 3 && lo.quantity < 25) {
      expected += static_cast<int64_t>(lo.extendedprice) * lo.discount;
    }
  }
  EXPECT_EQ(ref_->Execute(QueryId::kQ1_1).value, expected);
}

TEST_F(ReferenceSemanticsTest, Q2GroupKeysAreYearBrand) {
  QueryOutput out = ref_->Execute(QueryId::kQ2_1);
  EXPECT_FALSE(out.scalar);
  EXPECT_GT(out.rows(), 0u);
  for (const auto& [key, revenue] : out.groups) {
    EXPECT_GE(key[0], 1992);
    EXPECT_LE(key[0], 1998);
    // Q2.1: category MFGR#12 => brands 1201..1240.
    EXPECT_GE(key[1], 1201);
    EXPECT_LE(key[1], 1240);
    EXPECT_EQ(key[2], 0);
    EXPECT_GT(revenue, 0);
  }
}

TEST_F(ReferenceSemanticsTest, Q2SelectivityOrdering) {
  // Category (40 brands) > brand range (8) > single brand.
  auto sum = [&](QueryId query) {
    int64_t total = 0;
    for (const auto& [key, revenue] : ref_->Execute(query).groups) {
      (void)key;
      total += revenue;
    }
    return total;
  };
  EXPECT_GT(sum(QueryId::kQ2_1), sum(QueryId::kQ2_2));
  EXPECT_GT(sum(QueryId::kQ2_2), sum(QueryId::kQ2_3));
}

TEST_F(ReferenceSemanticsTest, Q3RegionConstraintsHold) {
  QueryOutput out = ref_->Execute(QueryId::kQ3_1);
  for (const auto& [key, revenue] : out.groups) {
    (void)revenue;
    // Both nations in ASIA (region 2 => nations 10..14).
    EXPECT_GE(key[0], 10);
    EXPECT_LE(key[0], 14);
    EXPECT_GE(key[1], 10);
    EXPECT_LE(key[1], 14);
    EXPECT_GE(key[2], 1992);
    EXPECT_LE(key[2], 1997);
  }
}

TEST_F(ReferenceSemanticsTest, Q3DrillDownShrinks) {
  // Q3.1 (region) ⊇ Q3.2 (nation) ⊇ Q3.3 (two cities) ⊇ Q3.4 (one month).
  auto total = [&](QueryId query) {
    int64_t sum = 0;
    for (const auto& [key, revenue] : ref_->Execute(query).groups) {
      (void)key;
      sum += revenue;
    }
    return sum;
  };
  EXPECT_GE(total(QueryId::kQ3_1), total(QueryId::kQ3_2));
  EXPECT_GE(total(QueryId::kQ3_2), total(QueryId::kQ3_3));
  EXPECT_GE(total(QueryId::kQ3_3), total(QueryId::kQ3_4));
}

TEST_F(ReferenceSemanticsTest, Q4ProfitIsRevenueMinusSupplyCost) {
  QueryOutput out = ref_->Execute(QueryId::kQ4_1);
  // Recompute independently.
  GroupMap expected;
  std::unordered_map<int32_t, const DateRow*> dates;
  for (const DateRow& d : db_->date) dates[d.datekey] = &d;
  for (const LineorderRow& lo : db_->lineorder) {
    const CustomerRow& c = db_->customer[lo.custkey - 1];
    const SupplierRow& s = db_->supplier[lo.suppkey - 1];
    const PartRow& p = db_->part[lo.partkey - 1];
    if (c.region != 1 || s.region != 1 || (p.mfgr != 1 && p.mfgr != 2)) {
      continue;
    }
    expected[{dates[lo.orderdate]->year, c.nation, 0}] +=
        static_cast<int64_t>(lo.revenue) - lo.supplycost;
  }
  EXPECT_EQ(out.groups, expected);
}

TEST_F(ReferenceSemanticsTest, Q4_2RestrictsYears) {
  for (const auto& [key, profit] : ref_->Execute(QueryId::kQ4_2).groups) {
    (void)profit;
    EXPECT_TRUE(key[0] == 1997 || key[0] == 1998) << key[0];
  }
}

TEST(MergeOutputsTest, EmptyAndSingle) {
  EXPECT_EQ(MergeOutputs({}), QueryOutput{});
  QueryOutput scalar;
  scalar.scalar = true;
  scalar.value = 42;
  EXPECT_EQ(MergeOutputs({scalar}), scalar);
}

TEST(MergeOutputsTest, SumsScalarsAndGroups) {
  QueryOutput a;
  a.scalar = true;
  a.value = 10;
  QueryOutput b;
  b.scalar = true;
  b.value = -3;
  QueryOutput merged = MergeOutputs({a, b});
  EXPECT_TRUE(merged.scalar);
  EXPECT_EQ(merged.value, 7);

  QueryOutput g1;
  g1.groups[{1993, 12, 0}] = 5;
  g1.groups[{1994, 12, 0}] = 1;
  QueryOutput g2;
  g2.groups[{1993, 12, 0}] = 2;
  g2.groups[{1993, 13, 0}] = 9;
  QueryOutput groups = MergeOutputs({g1, g2, QueryOutput{}});
  EXPECT_FALSE(groups.scalar);
  GroupMap expected;
  expected[{1993, 12, 0}] = 7;
  expected[{1993, 13, 0}] = 9;
  expected[{1994, 12, 0}] = 1;
  EXPECT_EQ(groups.groups, expected);
}

TEST(MergeOutputsTest, OrderIndependent) {
  QueryOutput a;
  a.groups[{1, 2, 3}] = 100;
  a.groups[{4, 5, 6}] = -1;
  QueryOutput b;
  b.groups[{4, 5, 6}] = 11;
  QueryOutput c;
  c.scalar = true;
  c.value = 2;
  EXPECT_EQ(MergeOutputs({a, b, c}), MergeOutputs({c, b, a}));
}

TEST_F(ReferenceSemanticsTest, Q4_3RestrictsToUsCitiesAndCategory14) {
  for (const auto& [key, profit] : ref_->Execute(QueryId::kQ4_3).groups) {
    (void)profit;
    // s_city ids of UNITED STATES (nation 9): 90..99.
    EXPECT_GE(key[1], 90);
    EXPECT_LE(key[1], 99);
    // brands of category MFGR#14: 1401..1440.
    EXPECT_GE(key[2], 1401);
    EXPECT_LE(key[2], 1440);
  }
}

}  // namespace
}  // namespace pmemolap::ssb
