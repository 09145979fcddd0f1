#include "engine/dimension_index.h"

#include <gtest/gtest.h>

#include <vector>

namespace pmemolap {
namespace {

class DimensionIndexTest : public ::testing::TestWithParam<IndexKind> {};

/// One-key ProbeBatch: the payload, or 0 for an absent key.
uint64_t Probe(const DimensionIndex& index, uint64_t key) {
  uint64_t payload = ~0ull;
  index.ProbeBatch(&key, 1, &payload);
  return payload;
}

TEST_P(DimensionIndexTest, InsertGetRoundTrip) {
  DimensionIndex index(GetParam());
  ASSERT_TRUE(index.Insert(19940101, 0xABCD).ok());
  EXPECT_EQ(Probe(index, 19940101), 0xABCDu);
  EXPECT_EQ(Probe(index, 19940102), 0u);
  EXPECT_EQ(index.size(), 1u);
}

TEST_P(DimensionIndexTest, DuplicatesRejected) {
  DimensionIndex index(GetParam());
  ASSERT_TRUE(index.Insert(1, 10).ok());
  EXPECT_EQ(index.Insert(1, 20).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Probe(index, 1), 10u);
}

TEST_P(DimensionIndexTest, StorageGrowsWithEntries) {
  DimensionIndex index(GetParam());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(index.Insert(key, key).ok());
  }
  uint64_t small = index.StorageBytes();
  for (uint64_t key = 100; key < 100000; ++key) {
    ASSERT_TRUE(index.Insert(key, key).ok());
  }
  EXPECT_GT(index.StorageBytes(), small);
  EXPECT_EQ(index.size(), 100000u);
}

TEST_P(DimensionIndexTest, ProbeBatchMatchesGetAndCountsOnce) {
  DimensionIndex index(GetParam());
  for (uint64_t key = 1; key <= 64; ++key) {
    ASSERT_TRUE(index.Insert(key, key * 10).ok());
  }
  std::vector<uint64_t> keys = {1, 64, 7, 1000 /* absent */, 32};
  std::vector<uint64_t> out(keys.size(), ~0ull);
  index.ProbeBatch(keys.data(), keys.size(), out.data());
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 640u);
  EXPECT_EQ(out[2], 70u);
  EXPECT_EQ(out[3], 0u) << "absent keys yield 0";
  EXPECT_EQ(out[4], 320u);
  // A batch answers each key exactly as a one-key probe does.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], Probe(index, keys[i])) << "key " << keys[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DimensionIndexTest,
                         ::testing::Values(IndexKind::kDash,
                                           IndexKind::kChained),
                         [](const auto& info) {
                           return info.param == IndexKind::kDash ? "Dash"
                                                                 : "Chained";
                         });

TEST(DimensionIndexCostTest, DashProbesOneOptaneLine) {
  DimensionIndex index(IndexKind::kDash);
  ProbeCost cost = index.probe_cost();
  EXPECT_EQ(cost.access_bytes, 256u);
  EXPECT_LT(cost.accesses_per_probe, 1.5);
}

TEST(DimensionIndexCostTest, ChainedProbesChaseSmallPointers) {
  DimensionIndex index(IndexKind::kChained);
  ProbeCost cost = index.probe_cost();
  EXPECT_EQ(cost.access_bytes, 64u);
  EXPECT_GT(cost.accesses_per_probe, 2.0);
  // The unaware index moves more *and smaller* random traffic per probe —
  // the mechanism behind Hyrise's PMEM penalty.
  DimensionIndex dash(IndexKind::kDash);
  EXPECT_GT(cost.accesses_per_probe * cost.access_bytes /
                (dash.probe_cost().accesses_per_probe * 256.0),
            0.5);
}

}  // namespace
}  // namespace pmemolap
