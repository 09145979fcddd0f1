// TierManager unit coverage: deterministic decay/promotion, hysteresis
// flap suppression, migration budgeting and capacity invariants, LRU
// churn, migration pricing, and same-sequence actuator-log byte-identity.
#include "tiering/tier_manager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "advance_lines.h"

namespace pmemolap {
namespace tiering {
namespace {

constexpr uint64_t kRow = 128;        // bytes per tuple (row image)
constexpr uint64_t kExtent = 32;      // tuples per extent (one code frame)
constexpr uint64_t kExtentBytes = kExtent * kRow;
constexpr uint64_t kTuples = 10 * kExtent;  // ten extents

const MemSystemModel& Model() {
  static MemSystemModel model;
  return model;
}

TieringConfig SmallConfig() {
  TieringConfig config;
  config.extent_tuples = kExtent;
  config.dram_budget_bytes = 1 * kExtentBytes;
  config.pmem_budget_bytes = 5 * kExtentBytes;
  config.decay = 0.8;
  config.hysteresis_quanta = 2;
  return config;
}

/// Touches every tuple of extent `e`, `times` over.
void TouchExtent(TierManager* manager, size_t e, int times = 1) {
  for (int i = 0; i < times; ++i) {
    manager->Touch(e * kExtent, (e + 1) * kExtent);
  }
}

bool LogContains(const TierManager& manager, const std::string& needle) {
  for (const std::string& line : manager.actuator_log()) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(TierManagerTest, AttachValidatesGeometry) {
  TieringConfig config = SmallConfig();
  config.extent_tuples = 33;  // not a whole code frame
  TierManager manager(&Model(), config);
  EXPECT_FALSE(manager.Attach(kTuples, kRow).ok());

  TieringConfig bad_decay = SmallConfig();
  bad_decay.decay = 1.0;
  TierManager decay_manager(&Model(), bad_decay);
  EXPECT_FALSE(decay_manager.Attach(kTuples, kRow).ok());

  TierManager empty_manager(&Model(), SmallConfig());
  EXPECT_FALSE(empty_manager.Attach(0, kRow).ok());
  EXPECT_TRUE(empty_manager.Attach(kTuples, kRow).ok());
}

TEST(TierManagerTest, InitialPlacementIsStaticAddressOrderFill) {
  // The pre-tiering layout: PMEM in address order up to the budget, the
  // overflow on SSD, DRAM empty until promotion earns it.
  TierManager manager(&Model(), SmallConfig());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  std::vector<Tier> tiers = manager.snapshot().tiers();
  ASSERT_EQ(tiers.size(), 10u);
  for (size_t e = 0; e < 5; ++e) EXPECT_EQ(tiers[e], Tier::kPmemTier) << e;
  for (size_t e = 5; e < 10; ++e) EXPECT_EQ(tiers[e], Tier::kSsdTier) << e;
}

TEST(TierManagerTest, SnapshotSplitsTupleRangesByResidentTier) {
  TierManager manager(&Model(), SmallConfig());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  TieringSnapshot snapshot = manager.snapshot();
  ASSERT_FALSE(snapshot.empty());
  // A range straddling the PMEM/SSD boundary splits by extent overlap.
  TieringSnapshot::TupleShare share =
      snapshot.SplitTuples(4 * kExtent + 16, 6 * kExtent);
  EXPECT_EQ(share.dram, 0u);
  EXPECT_EQ(share.pmem, 16u);
  EXPECT_EQ(share.ssd, kExtent);
  EXPECT_EQ(share.total(), 16u + kExtent);
  // Out-of-table and empty ranges are empty.
  EXPECT_EQ(snapshot.SplitTuples(kTuples, 2 * kTuples).total(), 0u);
  EXPECT_EQ(snapshot.SplitTuples(5, 5).total(), 0u);
}

TEST(TierManagerTest, HeatDecaysDeterministically) {
  TierManager manager(&Model(), SmallConfig());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  TouchExtent(&manager, 0, 3);  // 96 touched tuples
  manager.Advance();
  EXPECT_DOUBLE_EQ(manager.extent_heats()[0], 96.0);
  manager.Advance();  // no touches: pure decay
  EXPECT_DOUBLE_EQ(manager.extent_heats()[0], 96.0 * 0.8);
  TouchExtent(&manager, 0);
  manager.Advance();
  EXPECT_DOUBLE_EQ(manager.extent_heats()[0], 96.0 * 0.8 * 0.8 + 32.0);
}

TEST(TierManagerTest, HotSsdExtentPromotesAfterHysteresis) {
  TierManager manager(&Model(), SmallConfig());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  TouchExtent(&manager, 7);
  manager.Advance();  // desired dram, streak 1: no move yet
  EXPECT_EQ(manager.snapshot().tiers()[7], Tier::kSsdTier);
  TouchExtent(&manager, 7);
  manager.Advance();  // streak 2 = hysteresis_quanta: commits
  EXPECT_EQ(manager.snapshot().tiers()[7], Tier::kDramTier);
  EXPECT_TRUE(LogContains(manager, "migrate e7 ssd->dram"));
  // The rest of the placement did not churn.
  std::vector<Tier> tiers = manager.snapshot().tiers();
  for (size_t e = 0; e < 5; ++e) EXPECT_EQ(tiers[e], Tier::kPmemTier) << e;
}

TEST(TierManagerTest, AlternatingHotSetNeverFlaps) {
  // Two extents trade the top heat rank every quantum; with hysteresis 2
  // neither ever holds the desired DRAM slot long enough to commit, so
  // the placement never moves (the governor-style no-flapping property).
  TieringConfig config = SmallConfig();
  config.pmem_budget_bytes = 10 * kExtentBytes;  // everything fits PMEM
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  for (int q = 0; q < 10; ++q) {
    TouchExtent(&manager, q % 2 == 0 ? 5 : 6, 4);
    manager.Advance();
  }
  EXPECT_FALSE(LogContains(manager, "migrate e"));
  std::vector<Tier> tiers = manager.snapshot().tiers();
  for (const Tier tier : tiers) EXPECT_EQ(tier, Tier::kPmemTier);
}

TEST(TierManagerTest, IncumbentBonusRetainsMarginallyColderResident) {
  // Once an extent holds DRAM, a challenger within the incumbent bonus
  // margin does not displace it.
  TieringConfig config = SmallConfig();
  config.pmem_budget_bytes = 10 * kExtentBytes;
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  // Promote extent 5.
  for (int q = 0; q < 2; ++q) {
    TouchExtent(&manager, 5, 4);
    manager.Advance();
  }
  ASSERT_EQ(manager.snapshot().tiers()[5], Tier::kDramTier);
  // Keep 5 warm while 6 runs marginally hotter — but not by the bonus.
  for (int q = 0; q < 6; ++q) {
    TouchExtent(&manager, 5, 4);
    TouchExtent(&manager, 6, 4);
    manager.Touch(6 * kExtent, 6 * kExtent + 8);  // +8 tuples: ~6% hotter
    manager.Advance();
  }
  EXPECT_EQ(manager.snapshot().tiers()[5], Tier::kDramTier);
  EXPECT_NE(manager.snapshot().tiers()[6], Tier::kDramTier);
}

TEST(TierManagerTest, MigrationBudgetDefersButEventuallyCommits) {
  TieringConfig config = SmallConfig();
  config.dram_budget_bytes = 2 * kExtentBytes;
  config.migration_budget_bytes = kExtentBytes;  // one move per quantum
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  for (int q = 0; q < 2; ++q) {
    TouchExtent(&manager, 6, 2);
    TouchExtent(&manager, 7, 2);
    manager.Advance();
  }
  // Both passed hysteresis at q2 but the budget admits one: the tie
  // breaks to the lower id.
  std::vector<Tier> tiers = manager.snapshot().tiers();
  EXPECT_EQ(tiers[6], Tier::kDramTier);
  EXPECT_EQ(tiers[7], Tier::kSsdTier);
  TouchExtent(&manager, 6, 2);
  TouchExtent(&manager, 7, 2);
  manager.Advance();  // the deferred move kept its streak
  EXPECT_EQ(manager.snapshot().tiers()[7], Tier::kDramTier);
}

TEST(TierManagerTest, BudgetsAreNeverExceeded) {
  TieringConfig config = SmallConfig();
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  for (int q = 0; q < 12; ++q) {
    for (size_t e = 0; e < 10; ++e) TouchExtent(&manager, e, 1 + (q + e) % 3);
    manager.Advance();
    uint64_t dram = 0;
    uint64_t pmem = 0;
    const TieringSnapshot snapshot = manager.snapshot();
    for (const Tier tier : snapshot.tiers()) {
      if (tier == Tier::kDramTier) dram += kExtentBytes;
      if (tier == Tier::kPmemTier) pmem += kExtentBytes;
    }
    EXPECT_LE(dram, config.dram_budget_bytes);
    EXPECT_LE(pmem, config.pmem_budget_bytes);
  }
}

TEST(TierManagerTest, StaticPolicyNeverMigrates) {
  TieringConfig config = SmallConfig();
  config.policy = TierPolicy::kStatic;
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  std::vector<Tier> before = manager.snapshot().tiers();
  for (int q = 0; q < 5; ++q) {
    TouchExtent(&manager, 9, 8);
    manager.Advance();
  }
  EXPECT_EQ(manager.snapshot().tiers(), before);
  EXPECT_FALSE(LogContains(manager, "migrate e"));
  EXPECT_TRUE(manager.standing_traffic().empty());
  EXPECT_EQ(AdvanceLines(manager), 5);
}

TEST(TierManagerTest, LruCommitsImmediatelyAndColdScanEvicts) {
  // The LRU baseline's designed weakness: recency-only ranking with no
  // hysteresis, so one cold touch steals DRAM from a hot extent.
  TieringConfig config = SmallConfig();
  config.policy = TierPolicy::kLru;
  TierManager manager(&Model(), config);
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  TouchExtent(&manager, 7, 8);
  manager.Advance();  // promotes in ONE quantum
  EXPECT_EQ(manager.snapshot().tiers()[7], Tier::kDramTier);
  TouchExtent(&manager, 9);  // a single cold touch...
  manager.Advance();
  EXPECT_EQ(manager.snapshot().tiers()[9], Tier::kDramTier);  // ...pollutes
  EXPECT_NE(manager.snapshot().tiers()[7], Tier::kDramTier);
}

TEST(TierManagerTest, MigrationTrafficIsPricedBetweenTierMedia) {
  TierManager manager(&Model(), SmallConfig());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());
  for (int q = 0; q < 2; ++q) {
    TouchExtent(&manager, 7, 2);
    manager.Advance();
  }
  std::vector<TrafficRecord> standing = manager.standing_traffic();
  ASSERT_EQ(standing.size(), 2u);  // one move: read + write legs
  EXPECT_EQ(standing[0].op, OpType::kRead);
  EXPECT_EQ(standing[0].media, Media::kSsd);
  EXPECT_EQ(standing[0].bytes, kExtentBytes);
  EXPECT_EQ(standing[1].op, OpType::kWrite);
  EXPECT_EQ(standing[1].media, Media::kDram);
  EXPECT_EQ(standing[1].bytes, kExtentBytes);
  // A converged quantum clears the standing load.
  TouchExtent(&manager, 7, 2);
  manager.Advance();
  EXPECT_TRUE(manager.standing_traffic().empty());
}

TEST(TierManagerTest, SameSequenceProducesByteIdenticalActuatorLogs) {
  auto run = [] {
    TierManager manager(&Model(), SmallConfig());
    EXPECT_TRUE(manager.Attach(kTuples, kRow).ok());
    for (int q = 0; q < 8; ++q) {
      TouchExtent(&manager, static_cast<size_t>((q * 3) % 10), 1 + q % 4);
      TouchExtent(&manager, 7, 2);
      manager.Advance();
    }
    return manager.actuator_log();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tiering
}  // namespace pmemolap
