#include "topo/pinning.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pmemolap {
namespace {

int Hyperthreaded(const ThreadPlacement& placement) {
  return static_cast<int>(std::count_if(
      placement.slots.begin(), placement.slots.end(),
      [](const ThreadSlot& slot) { return slot.on_hyperthread; }));
}

class PinningTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  ThreadPlacer placer_{topo_};
};

TEST_F(PinningTest, RejectsBadArguments) {
  EXPECT_FALSE(placer_.Place(0, PinningPolicy::kCores, 0).ok());
  EXPECT_FALSE(placer_.Place(4, PinningPolicy::kCores, 2).ok());
  EXPECT_FALSE(placer_.Place(4, PinningPolicy::kCores, -1).ok());
}

TEST_F(PinningTest, CoresPinningFillsPhysicalFirst) {
  auto placement = placer_.Place(18, PinningPolicy::kCores, 0);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->threads(), 18);
  EXPECT_EQ(Hyperthreaded(*placement), 0);
  EXPECT_EQ(placement->CountNear(), 18);
  EXPECT_DOUBLE_EQ(placement->MeanMigrationRate(), 0.0);
}

TEST_F(PinningTest, CoresPinningUsesHyperthreadsBeyond18) {
  auto placement = placer_.Place(24, PinningPolicy::kCores, 0);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(Hyperthreaded(*placement), 6);
  EXPECT_EQ(placement->CountNear(), 24);
}

TEST_F(PinningTest, CoresPinningStaysOnDataSocket) {
  auto placement = placer_.Place(36, PinningPolicy::kCores, 1);
  ASSERT_TRUE(placement.ok());
  for (const ThreadSlot& slot : placement->slots) {
    EXPECT_EQ(slot.socket, 1);
    EXPECT_TRUE(slot.near_data);
  }
}

TEST_F(PinningTest, NumaRegionHasMildMigration) {
  auto placement = placer_.Place(18, PinningPolicy::kNumaRegion, 0);
  ASSERT_TRUE(placement.ok());
  EXPECT_GT(placement->MeanMigrationRate(), 0.0);
  EXPECT_LT(placement->MeanMigrationRate(), 0.99);
  EXPECT_EQ(placement->CountNear(), 18);
}

TEST_F(PinningTest, NumaRegionMigrationGrowsWhenOversubscribed) {
  auto small = placer_.Place(18, PinningPolicy::kNumaRegion, 0);
  auto large = placer_.Place(24, PinningPolicy::kNumaRegion, 0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->MeanMigrationRate(), small->MeanMigrationRate());
}

TEST_F(PinningTest, NonePinningSpreadsAcrossSockets) {
  auto placement = placer_.Place(8, PinningPolicy::kNone, 0);
  ASSERT_TRUE(placement.ok());
  // Round-robin: half near, half far.
  EXPECT_EQ(placement->CountNear(), 4);
  EXPECT_DOUBLE_EQ(placement->MeanMigrationRate(), 1.0);
}

TEST_F(PinningTest, NonePinningOddThreadCount) {
  auto placement = placer_.Place(7, PinningPolicy::kNone, 0);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->CountNear(), 4);  // sockets 0,1,0,1,0,1,0
}

TEST_F(PinningTest, OversubscriptionComputed) {
  auto placement = placer_.Place(72, PinningPolicy::kCores, 0);
  ASSERT_TRUE(placement.ok());
  // 72 threads on one socket's 36 logical CPUs.
  EXPECT_DOUBLE_EQ(placement->oversubscription, 2.0);
}

TEST_F(PinningTest, PolicyNames) {
  EXPECT_STREQ(PinningPolicyName(PinningPolicy::kNone), "None");
  EXPECT_STREQ(PinningPolicyName(PinningPolicy::kNumaRegion), "NUMA");
  EXPECT_STREQ(PinningPolicyName(PinningPolicy::kCores), "Cores");
}

TEST_F(PinningTest, EmptyPlacementHasNoMigration) {
  ThreadPlacement placement;
  EXPECT_DOUBLE_EQ(placement.MeanMigrationRate(), 0.0);
}

}  // namespace
}  // namespace pmemolap
