#include "core/replicator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace pmemolap {
namespace {

class ReplicatorTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  PmemSpace space_{topo_};
  DimensionReplicator replicator_{&space_};
};

TEST_F(ReplicatorTest, ReplicatesOntoEverySocket) {
  std::vector<std::byte> payload(1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xFF);
  }
  auto table = replicator_.Replicate(payload.data(), payload.size(),
                                     Media::kPmem);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_copies(), 2);
  EXPECT_EQ(table->size(), 1024u);
  for (int socket = 0; socket < 2; ++socket) {
    EXPECT_EQ(std::memcmp(table->copy(socket).data(), payload.data(), 1024),
              0)
        << socket;
  }
}

TEST_F(ReplicatorTest, CopiesAreIndependent) {
  std::vector<std::byte> payload(64, std::byte{0x42});
  auto table = replicator_.Replicate(payload.data(), payload.size(),
                                     Media::kDram);
  ASSERT_TRUE(table.ok());
  EXPECT_NE(table->copy(0).data(), table->copy(1).data());
}

TEST_F(ReplicatorTest, AccountsCapacityPerSocket) {
  uint64_t before0 = space_.AvailableBytes({Media::kPmem, 0});
  uint64_t before1 = space_.AvailableBytes({Media::kPmem, 1});
  std::vector<std::byte> payload(kMiB, std::byte{0});
  auto table = replicator_.Replicate(payload.data(), payload.size(),
                                     Media::kPmem);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(space_.AvailableBytes({Media::kPmem, 0}), before0 - kMiB);
  EXPECT_EQ(space_.AvailableBytes({Media::kPmem, 1}), before1 - kMiB);
}

TEST_F(ReplicatorTest, RejectsEmptyPayload) {
  EXPECT_FALSE(replicator_.Replicate(nullptr, 10, Media::kPmem).ok());
  std::byte byte{0};
  EXPECT_FALSE(replicator_.Replicate(&byte, 0, Media::kPmem).ok());
}

TEST_F(ReplicatorTest, EmptyTableIsInert) {
  ReplicatedTable table;
  EXPECT_EQ(table.num_copies(), 0);
  EXPECT_EQ(table.size(), 0u);
  Result<int> healthy = table.HealthyCopyIndex(0, 0, 8);
  ASSERT_FALSE(healthy.ok());
  EXPECT_EQ(healthy.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReplicatorTest, OutOfRangeSocketMapsOntoExistingCopy) {
  std::vector<std::byte> payload(256, std::byte{0x17});
  auto table = replicator_.Replicate(payload.data(), payload.size(),
                                     Media::kDram);
  ASSERT_TRUE(table.ok());
  // Sockets beyond (or below) the copy count wrap instead of walking off
  // the copies vector: the healthy-copy lookup starts at the wrapped one.
  EXPECT_EQ(table->HealthyCopyIndex(2, 0, 8).value(), 0);
  EXPECT_EQ(table->HealthyCopyIndex(5, 0, 8).value(), 1);
  EXPECT_EQ(table->HealthyCopyIndex(-1, 0, 8).value(), 1);
}

TEST_F(ReplicatorTest, AllocationFailureSurfacesAsError) {
  // A tiny-capacity platform where socket 1 cannot hold the second
  // replica: the error must propagate and the socket-0 copy roll back.
  SystemTopology::Config config = SystemTopology::PaperServer().config();
  config.pmem_dimm_capacity = kMiB;
  Result<SystemTopology> tiny = SystemTopology::Make(config);
  ASSERT_TRUE(tiny.ok());
  PmemSpace space(*tiny);
  DimensionReplicator replicator(&space);
  uint64_t per_socket = space.AvailableBytes({Media::kPmem, 1});
  Result<Allocation> hog =
      space.Allocate(per_socket - kMiB, {Media::kPmem, 1});
  ASSERT_TRUE(hog.ok());
  uint64_t socket0_before = space.AvailableBytes({Media::kPmem, 0});
  std::vector<std::byte> payload(2 * kMiB, std::byte{0x3C});
  Result<ReplicatedTable> table =
      replicator.Replicate(payload.data(), payload.size(), Media::kPmem);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(space.AvailableBytes({Media::kPmem, 0}), socket0_before);
  space.Release(hog.value());
}

TEST_F(ReplicatorTest, ShouldReplicateHeuristic) {
  // SSB dimensions (< 10% of the fact table) should be replicated.
  EXPECT_TRUE(DimensionReplicator::ShouldReplicate(kMiB, 100 * kMiB));
  EXPECT_FALSE(DimensionReplicator::ShouldReplicate(50 * kMiB, 100 * kMiB));
  // Unknown fact size: replicate (conservative).
  EXPECT_TRUE(DimensionReplicator::ShouldReplicate(kMiB, 0));
}

}  // namespace
}  // namespace pmemolap
