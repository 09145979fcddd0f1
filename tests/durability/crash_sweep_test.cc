// Exhaustive crash-point sweep: the modeled process is killed at EVERY
// persistence boundary of a multi-epoch ingest (plus the seeded random
// intra-flush tear points the injector draws at each one), and after
// recovery we require the crash-consistency contract:
//
//   - zero committed epochs lost (committed >= acked Appends),
//   - zero torn XPLines surfaced to readers (bytes are bit-identical to
//     the pattern that was ingested),
//   - ingest resumes and converges to the same final table regardless of
//     where the crash hit,
//   - recovery writes no payload line (the table's store count holds).
//
// The boundary count comes from a dry run with the injector disarmed, so
// the sweep stays exhaustive if the Append protocol grows primitives.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"

namespace pmemolap {
namespace {

constexpr int kEpochs = 3;
constexpr uint64_t kEpochBytes = 300;
constexpr uint64_t kSweepSeed = 0xC0FFEE;

std::vector<std::byte> Pattern(uint64_t size, int salt) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xFF);
  }
  return bytes;
}

DurableTable::Options SweepOptions(bool ntstore) {
  DurableTable::Options options;
  options.capacity_bytes = 64 * kKiB;
  options.log_bytes = 128 * kKiB;
  options.ntstore = ntstore;
  return options;
}

/// Attempts all kEpochs Appends; returns how many were acknowledged
/// (every Append after the crash fails fast, so acked also counts the
/// epochs committed before the boundary fired).
uint64_t AttemptIngest(DurableTable* table) {
  uint64_t acked = 0;
  for (int e = 1; e <= kEpochs; ++e) {
    std::vector<std::byte> payload = Pattern(kEpochBytes, e);
    if (table->Append(payload.data(), payload.size()).ok()) ++acked;
  }
  return acked;
}

void ExpectEpochIntact(const DurableTable& table, uint64_t epoch,
                       int64_t boundary) {
  std::vector<std::byte> expected =
      Pattern(kEpochBytes, static_cast<int>(epoch));
  std::vector<std::byte> got(kEpochBytes);
  ASSERT_TRUE(table
                  .ReadSnapshot(epoch, (epoch - 1) * kEpochBytes, kEpochBytes,
                                got.data())
                  .ok())
      << "boundary " << boundary << " epoch " << epoch;
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), kEpochBytes), 0)
      << "boundary " << boundary << " epoch " << epoch
      << ": committed bytes must be bit-identical after recovery";
}

/// Counts the persistence boundaries of the full ingest via a disarmed
/// injector (CrashPlan{-1} never fires).
uint64_t CountBoundaries(bool ntstore) {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  CrashInjector crash(kSweepSeed, CrashPlan{/*boundary_index=*/-1});
  auto table = DurableTable::Create(&space, &crash, SweepOptions(ntstore));
  EXPECT_TRUE(table.ok());
  EXPECT_EQ(AttemptIngest(table->get()), static_cast<uint64_t>(kEpochs));
  EXPECT_FALSE(crash.crashed());
  return crash.boundaries_seen();
}

void SweepEveryBoundary(bool ntstore) {
  const uint64_t boundaries = CountBoundaries(ntstore);
  ASSERT_GT(boundaries, 0u);

  for (uint64_t b = 0; b < boundaries; ++b) {
    SCOPED_TRACE(std::string(ntstore ? "ntstore" : "clwb") +
                 " writes, crash at boundary " + std::to_string(b));
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    CrashInjector crash(kSweepSeed,
                        CrashPlan{static_cast<int64_t>(b)});
    auto table =
        DurableTable::Create(&space, &crash, SweepOptions(ntstore));
    ASSERT_TRUE(table.ok());

    uint64_t acked = AttemptIngest(table->get());
    ASSERT_TRUE(crash.crashed()) << "every boundary must be reachable";
    EXPECT_EQ(crash.report().boundary, static_cast<int64_t>(b));

    const uint64_t table_store_lines =
        (*table)->table_region().store_lines();
    Result<RecoveryStats> stats = (*table)->Recover();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    uint64_t committed = (*table)->committed_epoch();
    EXPECT_EQ((*table)->table_region().store_lines(), table_store_lines)
        << "recovery verifies the payload, it never rewrites it";

    // Zero committed epochs lost; at most the in-flight epoch gained
    // (its commit fence may have fired or its WPQ lines survived).
    EXPECT_GE(committed, acked);
    EXPECT_LE(committed, acked + 1);
    EXPECT_EQ(stats->committed_epoch, committed);

    // Zero torn XPLines surfaced to readers.
    for (uint64_t e = 1; e <= committed; ++e) {
      ExpectEpochIntact(**table, e, static_cast<int64_t>(b));
    }

    // Ingest resumes where the committed prefix ends and converges to
    // the same final table every sweep iteration.
    for (uint64_t e = committed + 1; e <= kEpochs; ++e) {
      std::vector<std::byte> payload =
          Pattern(kEpochBytes, static_cast<int>(e));
      Result<uint64_t> epoch =
          (*table)->Append(payload.data(), payload.size());
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
      EXPECT_EQ(*epoch, e);
    }
    EXPECT_EQ((*table)->committed_epoch(), static_cast<uint64_t>(kEpochs));
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      ExpectEpochIntact(**table, e, static_cast<int64_t>(b));
    }

    // The runtime durability oracle watched every primitive of the
    // crashed ingest, the recovery and the resumed ingest: the
    // protocol must be violation-free at every boundary, not just
    // readable afterwards.
    const PersistOrderChecker& oracle = (*table)->order_checker();
    EXPECT_TRUE(oracle.clean())
        << "boundary " << b << ": [" << oracle.violations()[0].rule << "] "
        << oracle.violations()[0].region << " line "
        << oracle.violations()[0].line << ": "
        << oracle.violations()[0].detail;
  }
}

TEST(CrashSweepTest, EveryBoundaryRecoversNtStoreLog) {
  SweepEveryBoundary(/*ntstore=*/true);
}

TEST(CrashSweepTest, EveryBoundaryRecoversClwbLog) {
  SweepEveryBoundary(/*ntstore=*/false);
}

TEST(CrashSweepTest, SurvivalLotteryExtremesBracketTheDefault) {
  // At the payload fence of epoch 2 (first boundary of its Append is 4
  // in ntstore mode, so the fence is 5): with survival_p=1 the WPQ drain
  // completes and the payload is durable; with survival_p=0 it is lost
  // entirely. Committed stays 1 either way — the commit record was never
  // written — but the lottery decides what lies past the committed end
  // for recovery to truncate.
  for (double p : {0.0, 1.0}) {
    SCOPED_TRACE(p);
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    CrashInjector crash(kSweepSeed,
                        CrashPlan{/*boundary_index=*/5,
                                  /*accepted_survival_p=*/p});
    auto table = DurableTable::Create(&space, &crash, SweepOptions(true));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(AttemptIngest(table->get()), 1u);
    Result<RecoveryStats> stats = (*table)->Recover();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ((*table)->committed_epoch(), 1u);
    ExpectEpochIntact(**table, 1, 5);
  }
}

}  // namespace
}  // namespace pmemolap
