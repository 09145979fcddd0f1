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

// --- runtime staging (PlanStaging) -----------------------------------------

TEST_F(HybridTest, StagingPicksByBenefitDensityUnderBudget) {
  // Budget fits only one sized candidate: the denser one (date: more
  // seconds per byte) wins even though part saves more in total.
  std::vector<StagingCandidate> candidates = {
      {"part", 3 * kGiB, 0.030},
      {"date", kGiB, 0.020},
  };
  StagingPlan plan = placer_.PlanStaging(candidates, 2 * kGiB);
  ASSERT_EQ(plan.staged.size(), 1u);
  EXPECT_EQ(plan.staged[0].name, "date");
  EXPECT_EQ(plan.dram_used_bytes, kGiB);
  EXPECT_EQ(plan.rationale.size(), 2u);
}

TEST_F(HybridTest, StagingSkipsNonPositiveBenefit) {
  std::vector<StagingCandidate> candidates = {
      {"customer", kGiB, 0.0},
      {"supplier", kGiB, -0.5},
      {"date", kGiB, 0.001},
  };
  StagingPlan plan = placer_.PlanStaging(candidates, 16 * kGiB);
  ASSERT_EQ(plan.staged.size(), 1u);
  EXPECT_EQ(plan.staged[0].name, "date");
}

TEST_F(HybridTest, StagingIsDeterministicAcrossInputOrder) {
  std::vector<StagingCandidate> forward = {
      {"date", kGiB, 0.010},
      {"part", kGiB, 0.010},
      {"supplier", kGiB, 0.010},
  };
  std::vector<StagingCandidate> reversed(forward.rbegin(), forward.rend());
  StagingPlan a = placer_.PlanStaging(forward, 2 * kGiB);
  StagingPlan b = placer_.PlanStaging(reversed, 2 * kGiB);
  ASSERT_EQ(a.staged.size(), b.staged.size());
  for (size_t i = 0; i < a.staged.size(); ++i) {
    EXPECT_EQ(a.staged[i].name, b.staged[i].name);
  }
  // Equal densities tie-break by name: date and part stage, supplier not.
  ASSERT_EQ(a.staged.size(), 2u);
  EXPECT_EQ(a.staged[0].name, "date");
  EXPECT_EQ(a.staged[1].name, "part");
}

TEST_F(HybridTest, StagingNeverExceedsBudgetAndSortsByName) {
  std::vector<StagingCandidate> candidates = {
      {"part", 2 * kGiB, 0.004},
      {"customer", 3 * kGiB, 0.012},
      {"date", kGiB, 0.002},
  };
  StagingPlan plan = placer_.PlanStaging(candidates, 6 * kGiB);
  EXPECT_LE(plan.dram_used_bytes, 6 * kGiB);
  for (size_t i = 1; i < plan.staged.size(); ++i) {
    EXPECT_LT(plan.staged[i - 1].name, plan.staged[i].name);
  }
}

TEST_F(HybridTest, StagingZeroBudgetMeansPlatformCapacity) {
  std::vector<StagingCandidate> candidates = {{"date", kGiB, 0.010}};
  StagingPlan plan = placer_.PlanStaging(candidates, 0);
  ASSERT_EQ(plan.staged.size(), 1u);  // platform DRAM easily fits 1 GiB
}

}  // namespace
}  // namespace pmemolap
