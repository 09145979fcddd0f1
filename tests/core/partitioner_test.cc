#include "core/partitioner.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

class PartitionerTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  Partitioner partitioner_{topo_};
};

TEST_F(PartitionerTest, RejectsInvalidWorkers) {
  EXPECT_FALSE(partitioner_.Partition(100, 0).ok());
}

TEST_F(PartitionerTest, SocketSharesAreContiguousAndComplete) {
  auto partitions = partitioner_.Partition(1000, 4);
  ASSERT_TRUE(partitions.ok());
  ASSERT_EQ(partitions->size(), 2u);
  EXPECT_EQ((*partitions)[0].tuples.begin, 0u);
  EXPECT_EQ((*partitions)[0].tuples.end, 500u);
  EXPECT_EQ((*partitions)[1].tuples.begin, 500u);
  EXPECT_EQ((*partitions)[1].tuples.end, 1000u);
}

TEST_F(PartitionerTest, WorkerRangesPartitionSocketShare) {
  auto partitions = partitioner_.Partition(1000, 4);
  ASSERT_TRUE(partitions.ok());
  for (const SocketPartition& partition : *partitions) {
    ASSERT_EQ(partition.worker_ranges.size(), 4u);
    uint64_t expected_begin = partition.tuples.begin;
    uint64_t total = 0;
    for (const TupleRange& range : partition.worker_ranges) {
      EXPECT_EQ(range.begin, expected_begin);
      expected_begin = range.end;
      total += range.size();
    }
    EXPECT_EQ(expected_begin, partition.tuples.end);
    EXPECT_EQ(total, partition.tuples.size());
  }
}

TEST_F(PartitionerTest, UnevenCountsGiveRemainderToLast) {
  auto partitions = partitioner_.Partition(1001, 3);
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ((*partitions)[0].tuples.size(), 500u);
  EXPECT_EQ((*partitions)[1].tuples.size(), 501u);
  // Workers within socket 1: 167 + 167 + 167 = 501.
  uint64_t total = 0;
  for (const TupleRange& range : (*partitions)[1].worker_ranges) {
    total += range.size();
  }
  EXPECT_EQ(total, 501u);
}

TEST_F(PartitionerTest, TinyTableStillPartitions) {
  auto partitions = partitioner_.Partition(1, 4);
  ASSERT_TRUE(partitions.ok());
  uint64_t total = 0;
  for (const SocketPartition& partition : *partitions) {
    total += partition.tuples.size();
    for (const TupleRange& range : partition.worker_ranges) {
      total += 0 * range.size();  // ranges exist, possibly empty
    }
  }
  EXPECT_EQ(total, 1u);
}

TEST_F(PartitionerTest, TupleRangeHelpers) {
  TupleRange range{10, 20};
  EXPECT_EQ(range.size(), 10u);
  EXPECT_FALSE(range.empty());
  EXPECT_TRUE((TupleRange{5, 5}).empty());
}

TEST_F(PartitionerTest, ToMorselsCoversPartitionsPerSocket) {
  const uint64_t n = 10'000;
  auto partitions = partitioner_.Partition(n, 4);
  ASSERT_TRUE(partitions.ok());

  MorselPlan plan = Partitioner::ToMorsels(*partitions, /*morsel_tuples=*/768);
  EXPECT_EQ(plan.total_tuples(), n);
  for (const SocketPartition& partition : *partitions) {
    const auto& queue = plan.queues[static_cast<size_t>(partition.socket)];
    ASSERT_FALSE(queue.empty()) << partition.socket;
    // Morsels tile the partition's tuple range contiguously, front first.
    uint64_t at = partition.tuples.begin;
    for (const Morsel& morsel : queue) {
      EXPECT_EQ(morsel.begin, at);
      EXPECT_LE(morsel.size(), 768u);
      EXPECT_EQ(morsel.socket, partition.socket);
      at = morsel.end;
    }
    EXPECT_EQ(at, partition.tuples.end);
  }
}

TEST_F(PartitionerTest, ToMorselsZeroGranularityUsesDefault) {
  auto partitions = partitioner_.Partition(1000, 2);
  ASSERT_TRUE(partitions.ok());
  MorselPlan plan = Partitioner::ToMorsels(*partitions, 0);
  // 1000 tuples < one default morsel: one morsel per socket partition.
  EXPECT_EQ(plan.total_morsels(), partitions->size());
  EXPECT_EQ(plan.total_tuples(), 1000u);
}

}  // namespace
}  // namespace pmemolap
