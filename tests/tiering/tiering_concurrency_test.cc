// TSan-covered concurrent migrate-vs-scan suite: worker threads hammer
// Touch()/snapshot() (the scan side) while another thread drives
// Advance() (the migration side). Run under ThreadSanitizer in CI; the
// assertions here check the invariants that must hold under any
// interleaving — budgets respected, snapshots internally consistent, and
// the fold still commutative.
#include "tiering/tier_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "advance_lines.h"

namespace pmemolap {
namespace tiering {
namespace {

constexpr uint64_t kRow = 128;
constexpr uint64_t kExtent = 64;
constexpr uint64_t kTuples = 64 * kExtent;

TieringConfig Config() {
  TieringConfig config;
  config.extent_tuples = kExtent;
  config.dram_budget_bytes = 8 * kExtent * kRow;
  config.pmem_budget_bytes = 24 * kExtent * kRow;
  config.migration_budget_bytes = 4 * kExtent * kRow;
  return config;
}

TEST(TieringConcurrency, TouchVsAdvance) {
  static MemSystemModel model;
  TierManager manager(&model, Config());
  ASSERT_TRUE(manager.Attach(kTuples, kRow).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&manager, &stop, t] {
      uint64_t cursor = static_cast<uint64_t>(t) * 17 % 64;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t begin = (cursor % 64) * kExtent;
        manager.Touch(begin, begin + 3 * kExtent / 2);
        TieringSnapshot snapshot = manager.snapshot();
        if (!snapshot.empty()) {
          TieringSnapshot::TupleShare share =
              snapshot.SplitTuples(begin, begin + kExtent);
          EXPECT_EQ(share.total(), kExtent);
        }
        cursor = cursor * 33 + 7;
      }
    });
  }
  std::thread migrator([&manager, &stop] {
    for (int q = 0; q < 200; ++q) {
      manager.Advance();
      // Concurrent readers of the migration outputs — only the locking is
      // under test, so the checks hold under any interleaving.
      for (const TrafficRecord& record : manager.standing_traffic()) {
        EXPECT_EQ(record.pattern, Pattern::kSequentialIndividual);
      }
      EXPECT_GE(manager.actuator_log().size(), static_cast<size_t>(q + 1));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  migrator.join();
  for (std::thread& scanner : scanners) scanner.join();

  EXPECT_EQ(AdvanceLines(manager), 200);
  uint64_t dram = 0;
  uint64_t pmem = 0;
  const TieringSnapshot snapshot = manager.snapshot();
  for (const Tier tier : snapshot.tiers()) {
    if (tier == Tier::kDramTier) dram += kExtent * kRow;
    if (tier == Tier::kPmemTier) pmem += kExtent * kRow;
  }
  EXPECT_LE(dram, Config().dram_budget_bytes);
  EXPECT_LE(pmem, Config().pmem_budget_bytes);
}

TEST(TieringConcurrency, ConcurrentTouchesFoldCommutatively) {
  // Any interleaving of the same touch multiset folds to the same heat —
  // the property that keeps the actuator log deterministic under work
  // stealing.
  static MemSystemModel model;
  auto run = [](int thread_count) {
    TierManager manager(&model, Config());
    EXPECT_TRUE(manager.Attach(kTuples, kRow).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < thread_count; ++t) {
      threads.emplace_back([&manager, t, thread_count] {
        // Partition one fixed touch set across the threads.
        for (uint64_t e = static_cast<uint64_t>(t); e < 64;
             e += static_cast<uint64_t>(thread_count)) {
          manager.Touch(e * kExtent, (e + 1) * kExtent);
          manager.Touch(e * kExtent, e * kExtent + e);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    manager.Advance();
    return manager.extent_heats();
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace tiering
}  // namespace pmemolap
