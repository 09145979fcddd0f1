#include "dash/dash_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"

namespace pmemolap {
namespace {

TEST(DashTableTest, BucketIsOneOptaneLine) {
  EXPECT_EQ(DashTable::kBucketBytes, 256u);
  // Header (bitmap + count + 14 fingerprints, padded) + 14 x 16 B slots.
  EXPECT_EQ(DashTable::kSlotsPerBucket, 14);
}

TEST(DashTableTest, InsertAndGet) {
  DashTable table;
  ASSERT_TRUE(table.Insert(1, 100).ok());
  ASSERT_TRUE(table.Insert(2, 200).ok());
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Get(1).value(), 100u);
  EXPECT_EQ(table.Get(2).value(), 200u);
  EXPECT_FALSE(table.Get(3).has_value());
}

TEST(DashTableTest, DuplicateInsertRejected) {
  DashTable table;
  ASSERT_TRUE(table.Insert(7, 1).ok());
  Status dup = table.Insert(7, 2);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table.Get(7).value(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(DashTableTest, ZeroAndMaxKeys) {
  DashTable table;
  ASSERT_TRUE(table.Insert(0, 1).ok());
  ASSERT_TRUE(table.Insert(UINT64_MAX, 2).ok());
  EXPECT_EQ(table.Get(0).value(), 1u);
  EXPECT_EQ(table.Get(UINT64_MAX).value(), 2u);
}

TEST(DashTableTest, GrowsViaSegmentSplits) {
  DashTable table;
  uint64_t initial_segments = table.num_segments();
  const uint64_t n = 50000;
  for (uint64_t key = 0; key < n; ++key) {
    ASSERT_TRUE(table.Insert(key, key * 3).ok()) << key;
  }
  EXPECT_EQ(table.size(), n);
  EXPECT_GT(table.num_segments(), initial_segments);
}

TEST(DashTableTest, LookupAfterManyInserts) {
  DashTable table;
  const uint64_t n = 50000;
  for (uint64_t key = 0; key < n; ++key) {
    ASSERT_TRUE(table.Insert(key, key * 3).ok());
  }
  for (uint64_t key = 0; key < n; ++key) {
    auto value = table.Get(key);
    ASSERT_TRUE(value.has_value()) << key;
    EXPECT_EQ(*value, key * 3) << key;
  }
  // Absent keys stay absent.
  for (uint64_t key = n; key < n + 1000; ++key) {
    EXPECT_FALSE(table.Get(key).has_value()) << key;
  }
}

TEST(DashTableTest, LoadFactorStaysHigh) {
  DashTable table;
  for (uint64_t key = 0; key < 100000; ++key) {
    ASSERT_TRUE(table.Insert(key, key).ok());
  }
  // Dash's displacement + stash keep utilization well above naive
  // extendible hashing: occupied slots over the slots StorageBytes pays for.
  const double slots = static_cast<double>(table.StorageBytes() /
                                           DashTable::kBucketBytes *
                                           DashTable::kSlotsPerBucket);
  const double load_factor = static_cast<double>(table.size()) / slots;
  EXPECT_GT(load_factor, 0.35);
  EXPECT_LE(load_factor, 1.0);
}

TEST(DashTableTest, StorageBytesConsistentWithSegments) {
  DashTable table;
  for (uint64_t key = 0; key < 10000; ++key) {
    ASSERT_TRUE(table.Insert(key, key).ok());
  }
  EXPECT_EQ(table.StorageBytes(),
            table.num_segments() *
                (DashTable::kBucketsPerSegment + DashTable::kStashBuckets) *
                DashTable::kBucketBytes);
}

TEST(DashTableTest, ProbeCountingPerLookup) {
  DashTable table;
  ASSERT_TRUE(table.Insert(1, 1).ok());
  const uint64_t before = table.bucket_probes();
  EXPECT_TRUE(table.Get(1).has_value());
  EXPECT_GE(table.bucket_probes() - before, 1u);
  // Most probes resolve within the two candidate buckets.
  EXPECT_LE(table.bucket_probes() - before, 2u);
}

TEST(DashTableTest, ProbesPerLookupStayBounded) {
  DashTable table;
  const uint64_t n = 100000;
  for (uint64_t key = 0; key < n; ++key) {
    ASSERT_TRUE(table.Insert(key * 7919, key).ok());
  }
  const uint64_t before = table.bucket_probes();
  for (uint64_t key = 0; key < n; ++key) {
    ASSERT_TRUE(table.Get(key * 7919).has_value());
  }
  double probes_per_lookup =
      static_cast<double>(table.bucket_probes() - before) /
      static_cast<double>(n);
  // One-and-a-bit 256 B buckets resolve a probe on average (the Dash
  // property the engine's ProbeCost{1.2, 256} relies on; balanced
  // insertion trades a little lookup locality for load factor).
  EXPECT_LT(probes_per_lookup, 1.75);
  EXPECT_GE(probes_per_lookup, 1.0);
}

class DashRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DashRandomizedTest, MatchesStdUnorderedMap) {
  Rng rng(GetParam());
  DashTable table;
  std::unordered_map<uint64_t, uint64_t> reference;
  for (int op = 0; op < 30000; ++op) {
    uint64_t key = rng.NextBelow(5000);  // small space: many collisions
    if (rng.NextBelow(2) == 0) {  // insert
      uint64_t value = rng.Next();
      bool ref_inserted = reference.emplace(key, value).second;
      Status status = table.Insert(key, value);
      EXPECT_EQ(status.ok(), ref_inserted) << key;
    } else {  // lookup
      auto expected = reference.find(key);
      auto actual = table.Get(key);
      EXPECT_EQ(actual.has_value(), expected != reference.end());
      if (actual.has_value() && expected != reference.end()) {
        EXPECT_EQ(*actual, expected->second);
      }
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, value] : reference) {
    auto actual = table.Get(key);
    ASSERT_TRUE(actual.has_value()) << key;
    EXPECT_EQ(*actual, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DashRandomizedTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

TEST(DashTableTest, SparseKeysFromSsbDomain) {
  // Date keys are yyyymmdd integers — sparse and structured.
  DashTable table;
  for (int year = 1992; year <= 1998; ++year) {
    for (int month = 1; month <= 12; ++month) {
      for (int day = 1; day <= 28; ++day) {
        uint64_t key =
            static_cast<uint64_t>(year * 10000 + month * 100 + day);
        ASSERT_TRUE(table.Insert(key, key % 97).ok());
      }
    }
  }
  EXPECT_EQ(table.size(), 7u * 12 * 28);
  EXPECT_EQ(table.Get(19940615).value(), 19940615 % 97);
}

}  // namespace
}  // namespace pmemolap
