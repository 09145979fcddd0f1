// Persistence model unit tests: primitive pricing (memsys/persist), and
// PersistentRegion's per-line persist ladder and volatile/persisted image
// split, which the durability protocol is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/persistent_region.h"
#include "memsys/persist.h"

namespace pmemolap {
namespace {

// --- PersistCostModel ------------------------------------------------------

TEST(PersistCostModelTest, LinesCoveringCountsTouchedCacheLines) {
  EXPECT_EQ(PersistCostModel::LinesCovering(0, 0), 0u);
  EXPECT_EQ(PersistCostModel::LinesCovering(0, 1), 1u);
  EXPECT_EQ(PersistCostModel::LinesCovering(0, kCacheLineBytes), 1u);
  EXPECT_EQ(PersistCostModel::LinesCovering(0, kCacheLineBytes + 1), 2u);
  // Two bytes straddling a line boundary touch two lines.
  EXPECT_EQ(PersistCostModel::LinesCovering(kCacheLineBytes - 1, 2), 2u);
  EXPECT_EQ(PersistCostModel::LinesCovering(kCacheLineBytes, 64), 1u);
}

TEST(PersistCostModelTest, CachedStorePlusClwbPricesAboveNtStore) {
  // van Renen et al.: streaming writes want ntstore; the cached path pays
  // the read-allocate. The model must preserve that ordering.
  PersistCostModel cost;
  for (uint64_t lines : {1u, 4u, 64u}) {
    EXPECT_GT(cost.StoreSeconds(lines) + cost.FlushSeconds(lines),
              cost.NtStoreSeconds(lines))
        << lines << " lines";
  }
}

TEST(PersistCostModelTest, SingleLineNtStoreAppendIsHalfMicroBallpark) {
  PersistCostModel cost;
  double append = cost.NtStoreSeconds(1) + cost.FenceSeconds(1);
  EXPECT_GT(append, 0.3e-6);
  EXPECT_LT(append, 0.7e-6);
}

TEST(PersistCostModelTest, FenceGrowsWithPendingLines) {
  PersistCostModel cost;
  EXPECT_GT(cost.FenceSeconds(0), 0.0) << "ordering stall floor";
  EXPECT_GT(cost.FenceSeconds(8), cost.FenceSeconds(1));
  EXPECT_GT(cost.ScanSeconds(100), cost.ScanSeconds(10));
  EXPECT_EQ(cost.StoreSeconds(0), 0.0);
}

// --- PersistentRegion ------------------------------------------------------

class PersistentRegionTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  PmemSpace space_{topo_};
  PersistCostModel cost_;
};

std::vector<std::byte> Pattern(uint64_t size, int salt) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xFF);
  }
  return bytes;
}

constexpr PersistLineState kClean = PersistLineState::kClean;
constexpr PersistLineState kDirty = PersistLineState::kDirtyCache;
constexpr PersistLineState kAccepted = PersistLineState::kAcceptedWpq;

/// Every line's state, in line order.
std::vector<PersistLineState> LineStates(const PersistentRegion& region) {
  std::vector<PersistLineState> states;
  for (uint64_t line = 0; line * kCacheLineBytes < region.size(); ++line) {
    states.push_back(region.line_state(line));
  }
  return states;
}

uint64_t LinesIn(const PersistentRegion& region, PersistLineState state) {
  std::vector<PersistLineState> states = LineStates(region);
  return static_cast<uint64_t>(std::count(states.begin(), states.end(), state));
}

// --- The persist ladder, line by line ---------------------------------------

TEST_F(PersistentRegionTest, StoreFlushFenceWalksTheThreeStages) {
  auto region = PersistentRegion::Create(&space_, 4 * kCacheLineBytes,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  PersistentRegion& r = **region;
  EXPECT_EQ(LineStates(r),
            (std::vector<PersistLineState>{kClean, kClean, kClean, kClean}));

  std::vector<std::byte> payload = Pattern(2 * kCacheLineBytes, 1);
  ASSERT_TRUE(r.Store(0, payload.data(), payload.size()).ok());
  EXPECT_EQ(LineStates(r),
            (std::vector<PersistLineState>{kDirty, kDirty, kClean, kClean}));

  // clwb moves exactly the dirty lines in range; clean lines cost nothing.
  ASSERT_TRUE(r.FlushRange(0, 4 * kCacheLineBytes).ok());
  EXPECT_EQ(r.flush_lines(), 2u);
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{
                               kAccepted, kAccepted, kClean, kClean}));
  ASSERT_TRUE(r.FlushRange(0, 4 * kCacheLineBytes).ok());
  EXPECT_EQ(r.flush_lines(), 2u);

  ASSERT_TRUE(r.Fence().ok());
  EXPECT_EQ(LineStates(r),
            (std::vector<PersistLineState>{kClean, kClean, kClean, kClean}));
}

TEST_F(PersistentRegionTest, RestoreOfAcceptedLineDropsBackToDirty) {
  // A new cached store re-dirties the cache line: the earlier write-back
  // no longer covers the line's current contents, so a fence leaves it
  // in flight and its persisted bytes unchanged.
  auto region = PersistentRegion::Create(&space_, 2 * kCacheLineBytes,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  PersistentRegion& r = **region;
  std::vector<std::byte> payload = Pattern(kCacheLineBytes, 2);
  ASSERT_TRUE(r.Store(0, payload.data(), payload.size()).ok());
  ASSERT_TRUE(r.FlushRange(0, payload.size()).ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kAccepted, kClean}));
  ASSERT_TRUE(r.Store(0, payload.data(), payload.size()).ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kDirty, kClean}));
  ASSERT_TRUE(r.Fence().ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kDirty, kClean}));
  EXPECT_EQ(r.PersistedImage()[0], std::byte{0});
}

TEST_F(PersistentRegionTest, NtStoreBypassesTheDirtyStage) {
  auto region = PersistentRegion::Create(&space_, 8 * kCacheLineBytes,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  PersistentRegion& r = **region;
  std::vector<std::byte> payload = Pattern(3 * kCacheLineBytes, 3);
  ASSERT_TRUE(
      r.NtStore(2 * kCacheLineBytes, payload.data(), payload.size()).ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{
                               kClean, kClean, kAccepted, kAccepted,
                               kAccepted, kClean, kClean, kClean}));
  // Nothing is dirty, so a flush over the whole region moves no line.
  ASSERT_TRUE(r.FlushRange(0, r.size()).ok());
  EXPECT_EQ(r.flush_lines(), 0u);
}

TEST_F(PersistentRegionTest, FenceDrainsAcceptedLinesAndKeepsDirtyOnes) {
  CrashInjector crash(/*seed=*/7);
  auto region = PersistentRegion::Create(&space_, 2 * kCacheLineBytes,
                                         /*socket=*/0, &crash, &cost_);
  ASSERT_TRUE(region.ok());
  PersistentRegion& r = **region;
  std::vector<std::byte> old_bytes = Pattern(2 * kCacheLineBytes, 4);
  ASSERT_TRUE(r.NtStore(0, old_bytes.data(), old_bytes.size()).ok());
  ASSERT_TRUE(r.Fence().ok());

  // Line 0 takes a cached store (dirty), line 1 an ntstore (accepted).
  std::vector<std::byte> new_bytes = Pattern(2 * kCacheLineBytes, 5);
  ASSERT_TRUE(r.Store(0, new_bytes.data(), kCacheLineBytes).ok());
  ASSERT_TRUE(r.NtStore(kCacheLineBytes, new_bytes.data() + kCacheLineBytes,
                        kCacheLineBytes)
                  .ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kDirty, kAccepted}));
  double before = r.modeled_seconds();
  ASSERT_TRUE(r.Fence().ok());
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kDirty, kClean}));
  EXPECT_EQ(r.modeled_seconds(), before + cost_.FenceSeconds(1));

  // A crash at the next boundary loses the dirty line and keeps the
  // drained one.
  crash.Arm(static_cast<int64_t>(crash.boundaries_seen()));
  EXPECT_EQ(r.Fence().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(crash.crashed());
  EXPECT_EQ(crash.report().dirty_lines_lost, 1u);
  EXPECT_EQ(crash.report().accepted_lines_lost, 0u);
  EXPECT_EQ(std::memcmp(r.data(), old_bytes.data(), kCacheLineBytes), 0);
  EXPECT_EQ(std::memcmp(r.data() + kCacheLineBytes,
                        new_bytes.data() + kCacheLineBytes, kCacheLineBytes),
            0);
  EXPECT_EQ(LineStates(r), (std::vector<PersistLineState>{kClean, kClean}));
}

// --- The volatile and persisted images ------------------------------------

TEST_F(PersistentRegionTest, StoreAloneIsNotDurable) {
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  std::vector<std::byte> payload = Pattern(100, 1);
  ASSERT_TRUE((*region)->Store(0, payload.data(), payload.size()).ok());
  // Volatile image sees the bytes; the persisted image does not.
  EXPECT_EQ(std::memcmp((*region)->data(), payload.data(), payload.size()),
            0);
  EXPECT_EQ((*region)->PersistedImage()[0], std::byte{0});
  EXPECT_EQ(LinesIn(**region, kDirty), 2u);  // 100 B = 2 lines

  ASSERT_TRUE((*region)->FlushRange(0, payload.size()).ok());
  EXPECT_EQ((*region)->PersistedImage()[0], std::byte{0})
      << "clwb accepts into the WPQ; only the fence drains it";
  ASSERT_TRUE((*region)->Fence().ok());
  EXPECT_EQ(std::memcmp((*region)->PersistedImage().data(), payload.data(),
                        payload.size()),
            0);
  EXPECT_EQ(LinesIn(**region, kClean), 16u);
}

TEST_F(PersistentRegionTest, NtStorePlusFencePersists) {
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  std::vector<std::byte> payload = Pattern(kOptaneLineBytes, 2);
  ASSERT_TRUE(
      (*region)->NtStore(kOptaneLineBytes, payload.data(), payload.size())
          .ok());
  EXPECT_EQ(LinesIn(**region, kAccepted), 4u);
  ASSERT_TRUE((*region)->Fence().ok());
  std::vector<std::byte> persisted = (*region)->PersistedImage();
  EXPECT_EQ(std::memcmp(persisted.data() + kOptaneLineBytes, payload.data(),
                        payload.size()),
            0);
}

TEST_F(PersistentRegionTest, AccruesModeledSecondsPerPrimitive) {
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ((*region)->modeled_seconds(), 0.0);
  std::vector<std::byte> payload = Pattern(128, 3);
  ASSERT_TRUE((*region)->Store(0, payload.data(), payload.size()).ok());
  ASSERT_TRUE((*region)->FlushRange(0, payload.size()).ok());
  ASSERT_TRUE((*region)->Fence().ok());
  double expected = cost_.StoreSeconds(2) + cost_.FlushSeconds(2) +
                    cost_.FenceSeconds(2);
  EXPECT_DOUBLE_EQ((*region)->modeled_seconds(), expected);
  EXPECT_EQ((*region)->store_lines(), 2u);
  EXPECT_EQ((*region)->flush_lines(), 2u);
  EXPECT_EQ((*region)->fences(), 1u);
}

TEST_F(PersistentRegionTest, BoundsAreChecked) {
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  std::byte byte{0xAA};
  EXPECT_EQ((*region)->Store(kOptaneLineBytes, &byte, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*region)->FlushRange(0, kOptaneLineBytes + 1).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistentRegionTest, TruncateZeroesBothImagesPastOffset) {
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 2,
                                         /*socket=*/0, nullptr, &cost_);
  ASSERT_TRUE(region.ok());
  std::vector<std::byte> payload = Pattern(2 * kOptaneLineBytes, 4);
  ASSERT_TRUE((*region)->NtStore(0, payload.data(), payload.size()).ok());
  ASSERT_TRUE((*region)->Fence().ok());
  ASSERT_TRUE((*region)->TruncateTo(10).ok());
  EXPECT_EQ(std::memcmp((*region)->data(), payload.data(), 10), 0);
  std::vector<std::byte> persisted = (*region)->PersistedImage();
  for (uint64_t i = 10; i < 2 * kOptaneLineBytes; ++i) {
    ASSERT_EQ((*region)->data()[i], std::byte{0}) << i;
    ASSERT_EQ(persisted[i], std::byte{0}) << i;
  }
}

// --- Crash semantics at a single boundary ----------------------------------

TEST_F(PersistentRegionTest, CrashAtStoreBoundaryLosesTheCachedWrite) {
  CrashInjector crash(/*seed=*/7, CrashPlan{/*boundary_index=*/0});
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                         /*socket=*/0, &crash, &cost_);
  ASSERT_TRUE(region.ok());
  std::vector<std::byte> payload = Pattern(200, 5);
  Status status = (*region)->Store(0, payload.data(), payload.size());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(crash.crashed());
  // The cached store never reached the persistence domain: after the
  // restart reconciliation both images are the original zeros.
  for (uint64_t i = 0; i < payload.size(); ++i) {
    ASSERT_EQ((*region)->data()[i], std::byte{0}) << i;
  }
  // A dead process cannot issue primitives until recovery acknowledges.
  EXPECT_EQ((*region)->Fence().code(), StatusCode::kUnavailable);
  EXPECT_EQ(crash.report().boundary, 0);
}

TEST_F(PersistentRegionTest, CrashAtFenceRunsTheSurvivalLottery) {
  // survival_p = 1: every WPQ-accepted line survives the power cut even
  // though the fence never completed.
  CrashInjector crash(/*seed=*/7,
                      CrashPlan{/*boundary_index=*/1,
                                /*accepted_survival_p=*/1.0});
  auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                         /*socket=*/0, &crash, &cost_);
  ASSERT_TRUE(region.ok());
  std::vector<std::byte> payload = Pattern(kOptaneLineBytes, 6);
  ASSERT_TRUE(
      (*region)->NtStore(0, payload.data(), payload.size()).ok());  // b0
  EXPECT_EQ((*region)->Fence().code(), StatusCode::kUnavailable);   // b1
  EXPECT_EQ(std::memcmp((*region)->PersistedImage().data(), payload.data(),
                        payload.size()),
            0);
  EXPECT_EQ(crash.report().accepted_lines_survived, 4u);
  EXPECT_EQ(crash.report().torn_xplines, 0u);

  // survival_p = 0: the same crash loses every accepted line.
  CrashInjector crash0(/*seed=*/7,
                       CrashPlan{/*boundary_index=*/1,
                                 /*accepted_survival_p=*/0.0});
  auto region0 = PersistentRegion::Create(&space_, kOptaneLineBytes * 4,
                                          /*socket=*/0, &crash0, &cost_);
  ASSERT_TRUE(region0.ok());
  ASSERT_TRUE(
      (*region0)->NtStore(0, payload.data(), payload.size()).ok());
  EXPECT_EQ((*region0)->Fence().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*region0)->PersistedImage()[0], std::byte{0});
  EXPECT_EQ(crash0.report().accepted_lines_lost, 4u);
}

TEST_F(PersistentRegionTest, CrashReportIsDeterministicFromSeedAndBoundary) {
  auto run = [&](uint64_t seed, int64_t boundary) {
    CrashInjector crash(seed, CrashPlan{boundary});
    auto region = PersistentRegion::Create(&space_, kOptaneLineBytes * 8,
                                           /*socket=*/0, &crash, &cost_);
    EXPECT_TRUE(region.ok());
    std::vector<std::byte> payload = Pattern(5 * kOptaneLineBytes, 8);
    Status status = (*region)->NtStore(0, payload.data(), payload.size());
    if (status.ok()) status = (*region)->Fence();
    EXPECT_FALSE(status.ok());
    return crash.report();
  };
  for (int64_t boundary : {0, 1}) {
    CrashReport a = run(42, boundary);
    CrashReport b = run(42, boundary);
    EXPECT_EQ(a.boundary, b.boundary);
    EXPECT_EQ(a.dirty_lines_lost, b.dirty_lines_lost);
    EXPECT_EQ(a.accepted_lines_lost, b.accepted_lines_lost);
    EXPECT_EQ(a.accepted_lines_survived, b.accepted_lines_survived);
    EXPECT_EQ(a.torn_xplines, b.torn_xplines);
  }
  // A different seed draws a different partial prefix at the same
  // boundary (5 XPLines of in-flight ntstore leave room to differ).
  CrashReport a = run(42, 0);
  CrashReport c = run(43, 0);
  EXPECT_TRUE(a.accepted_lines_survived != c.accepted_lines_survived ||
              a.accepted_lines_lost != c.accepted_lines_lost);
}

}  // namespace
}  // namespace pmemolap
