#include "core/hybrid.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace pmemolap {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  HybridPlacer placer_{topo_};
};

TEST_F(HybridTest, IndexesGetDramFirst) {
  StructureSizes sizes;
  sizes.table_bytes = 100 * kGiB;
  sizes.index_bytes = 2 * kGiB;
  sizes.intermediate_bytes = 4 * kGiB;
  // Budget only fits the indexes.
  HybridPlacement plan = placer_.Place(sizes, 3 * kGiB);
  EXPECT_EQ(plan.index_media, Media::kDram);
  EXPECT_EQ(plan.intermediate_media, Media::kPmem);
  EXPECT_EQ(plan.table_media, Media::kPmem);
  EXPECT_EQ(plan.dram_used_bytes, 2 * kGiB);
}

TEST_F(HybridTest, IntermediatesSecondPriority) {
  StructureSizes sizes;
  sizes.table_bytes = 100 * kGiB;
  sizes.index_bytes = 2 * kGiB;
  sizes.intermediate_bytes = 4 * kGiB;
  HybridPlacement plan = placer_.Place(sizes, 8 * kGiB);
  EXPECT_EQ(plan.index_media, Media::kDram);
  EXPECT_EQ(plan.intermediate_media, Media::kDram);
  EXPECT_EQ(plan.table_media, Media::kPmem);
  EXPECT_EQ(plan.dram_used_bytes, 6 * kGiB);
}

TEST_F(HybridTest, SmallWorkingSetGoesFullyDram) {
  StructureSizes sizes;
  sizes.table_bytes = 10 * kGiB;
  sizes.index_bytes = kGiB;
  sizes.intermediate_bytes = kGiB;
  HybridPlacement plan = placer_.Place(sizes);  // full platform budget
  EXPECT_EQ(plan.table_media, Media::kDram);
  EXPECT_EQ(plan.index_media, Media::kDram);
  EXPECT_EQ(plan.intermediate_media, Media::kDram);
}

TEST_F(HybridTest, ZeroBudgetMeansPlatformCapacity) {
  StructureSizes sizes;
  sizes.index_bytes = 50 * kGiB;  // fits the 96 GiB platform DRAM
  HybridPlacement plan = placer_.Place(sizes, 0);
  EXPECT_EQ(plan.index_media, Media::kDram);
}

TEST_F(HybridTest, NoBudgetStaysPmemOnly) {
  StructureSizes sizes;
  sizes.table_bytes = 100 * kGiB;
  sizes.index_bytes = 2 * kGiB;
  sizes.intermediate_bytes = 4 * kGiB;
  HybridPlacement plan = placer_.Place(sizes, kGiB);
  EXPECT_EQ(plan.table_media, Media::kPmem);
  EXPECT_EQ(plan.index_media, Media::kPmem);
  EXPECT_EQ(plan.intermediate_media, Media::kPmem);
  EXPECT_EQ(plan.dram_used_bytes, 0u);
}

TEST_F(HybridTest, UsedBytesNeverExceedBudget) {
  for (uint64_t budget : {kGiB, 4 * kGiB, 16 * kGiB, 64 * kGiB}) {
    StructureSizes sizes;
    sizes.table_bytes = 40 * kGiB;
    sizes.index_bytes = 3 * kGiB;
    sizes.intermediate_bytes = 5 * kGiB;
    HybridPlacement plan = placer_.Place(sizes, budget);
    EXPECT_LE(plan.dram_used_bytes, budget) << budget;
  }
}

TEST_F(HybridTest, RationaleAlwaysExplainsEveryStructure) {
  StructureSizes sizes;
  sizes.table_bytes = 100 * kGiB;
  sizes.index_bytes = 2 * kGiB;
  sizes.intermediate_bytes = 4 * kGiB;
  HybridPlacement plan = placer_.Place(sizes, 8 * kGiB);
  EXPECT_EQ(plan.rationale.size(), 3u);
}

}  // namespace
}  // namespace pmemolap
