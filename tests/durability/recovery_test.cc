// DurableTable::Recover tests: crash-point recovery of committed epochs,
// idempotent re-recovery (including a crash *during* recovery), and
// tolerance of log corruptions — duplicate commit markers and torn
// tails — injected straight into the log region.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"
#include "durability/redo_log.h"

namespace pmemolap {
namespace {

std::vector<std::byte> Pattern(uint64_t size, int salt) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xFF);
  }
  return bytes;
}

DurableTable::Options SmallOptions() {
  DurableTable::Options options;
  options.capacity_bytes = 64 * kKiB;
  options.log_bytes = 128 * kKiB;
  return options;
}

class RecoveryTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  PmemSpace space_{topo_};
};

/// Appends epochs 1..n with Pattern payloads of `size` bytes each;
/// returns how many Appends succeeded.
uint64_t IngestEpochs(DurableTable* table, int n, uint64_t size) {
  uint64_t acked = 0;
  for (int e = 1; e <= n; ++e) {
    std::vector<std::byte> payload = Pattern(size, e);
    if (table->Append(payload.data(), payload.size()).ok()) ++acked;
  }
  return acked;
}

void ExpectOracleClean(const DurableTable& table) {
  const PersistOrderChecker& oracle = table.order_checker();
  EXPECT_TRUE(oracle.clean())
      << "[" << oracle.violations()[0].rule << "] "
      << oracle.violations()[0].region << " line "
      << oracle.violations()[0].line << ": "
      << oracle.violations()[0].detail;
}

void ExpectEpochBytes(const DurableTable& table, uint64_t epoch,
                      uint64_t size) {
  std::vector<std::byte> expected = Pattern(size, static_cast<int>(epoch));
  std::vector<std::byte> got(size);
  ASSERT_TRUE(
      table.ReadSnapshot(epoch, (epoch - 1) * size, size, got.data()).ok())
      << "epoch " << epoch;
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), size), 0)
      << "epoch " << epoch << " bytes must be bit-identical";
}

TEST_F(RecoveryTest, HealthyRecoverIsAnIdempotentReplay) {
  auto table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 3, 500), 3u);

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 3u);
  EXPECT_EQ(stats->replayed_epochs, 3u);
  EXPECT_EQ(stats->replayed_bytes, 1500u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_GT(stats->modeled_seconds, 0.0);
  EXPECT_EQ((*table)->committed_epoch(), 3u);
  for (uint64_t e = 1; e <= 3; ++e) ExpectEpochBytes(**table, e, 500);

  // And again: same state, no compounding.
  ASSERT_TRUE((*table)->Recover().ok());
  EXPECT_EQ((*table)->committed_epoch(), 3u);
  for (uint64_t e = 1; e <= 3; ++e) ExpectEpochBytes(**table, e, 500);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, CrashBeforeCommitDropsOnlyTheInFlightEpoch) {
  // ntstore-mode Append is 7 boundaries; epoch 2 starts at boundary 7.
  // Crash at its first primitive with survival_p=0: epoch 2 fully lost.
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/7,
                                /*accepted_survival_p=*/0.0});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 400), 1u);
  EXPECT_TRUE(crash.crashed());
  EXPECT_EQ((*table)
                ->ReadSnapshot(DurableTable::kLatestEpoch, 0, 1, nullptr)
                .code(),
            StatusCode::kUnavailable)
      << "a crashed table must not serve reads before recovery";

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 1u);
  EXPECT_EQ((*table)->committed_epoch(), 1u);
  ExpectEpochBytes(**table, 1, 400);

  // Ingest resumes exactly where the committed prefix ends.
  std::vector<std::byte> payload = Pattern(400, 2);
  Result<uint64_t> epoch = (*table)->Append(payload.data(), payload.size());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  ExpectEpochBytes(**table, 2, 400);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, CrashAfterCommitFenceIsReplayedNotLost) {
  // Boundary 11 is epoch 2's table-image Store — past the commit fence
  // (boundary 10), so the epoch is durable in the log and recovery must
  // replay it even though Append returned Unavailable.
  CrashInjector crash(/*seed=*/0xF001, CrashPlan{/*boundary_index=*/11});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 400), 1u)
      << "epoch 2's Append must surface the crash";

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 2u)
      << "zero committed epochs may be lost";
  EXPECT_EQ((*table)->committed_epoch(), 2u);
  ExpectEpochBytes(**table, 1, 400);
  ExpectEpochBytes(**table, 2, 400);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, CrashDuringRecoveryConvergesOnRerun) {
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/16,
                                /*accepted_survival_p=*/0.0});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 3, 400), 2u);

  // First recovery attempt is itself cut down mid-replay: re-arm two
  // boundaries into the future before running it.
  crash.AcknowledgeCrash();
  crash.Arm(static_cast<int64_t>(crash.boundaries_seen()) + 2);
  Result<RecoveryStats> cut = (*table)->Recover();
  EXPECT_EQ(cut.status().code(), StatusCode::kUnavailable)
      << "the re-armed crash must fire inside recovery";

  // Second attempt converges: same committed prefix, bit-identical bytes.
  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 2u);
  EXPECT_EQ((*table)->committed_epoch(), 2u);
  ExpectEpochBytes(**table, 1, 400);
  ExpectEpochBytes(**table, 2, 400);

  // Third run on the now-healthy table: still the same state.
  ASSERT_TRUE((*table)->Recover().ok());
  EXPECT_EQ((*table)->committed_epoch(), 2u);
  ExpectEpochBytes(**table, 1, 400);
  ExpectEpochBytes(**table, 2, 400);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, DuplicateCommitMarkerIsToleratedAndTruncated) {
  auto table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 300), 2u);

  // Plant a CRC-valid duplicate commit for epoch 1 at the log tail — the
  // corruption pattern a partial truncation could leave behind.
  uint64_t tail = 2 * (LogRecordFootprint(300) + LogRecordFootprint(0));
  std::vector<std::byte> dup = EncodeCommitRecord(1);
  PersistentRegion& log = (*table)->log_region();
  ASSERT_TRUE(log.NtStore(tail, dup.data(), dup.size()).ok());
  ASSERT_TRUE(log.Fence().ok());

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->duplicate_commits, 1u);
  EXPECT_EQ(stats->committed_epoch, 2u);
  EXPECT_EQ(stats->truncated_bytes, LogRecordFootprint(0))
      << "the duplicate marker is dropped by the truncation";
  ExpectEpochBytes(**table, 1, 300);
  ExpectEpochBytes(**table, 2, 300);

  // After truncation a second recovery sees a pristine log.
  Result<RecoveryStats> again = (*table)->Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->duplicate_commits, 0u);
  EXPECT_EQ(again->truncated_bytes, 0u);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, TruncatedTailRecordIsDetectedAndDropped) {
  auto table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 300), 2u);

  // Plant the first half of a data record at the tail — an append a
  // crash cut mid-write. The CRC (or the truncated payload) must stop
  // the scan; recovery truncates and the table stays at epoch 2.
  std::vector<std::byte> payload = Pattern(300, 3);
  std::vector<std::byte> record = EncodeDataRecord(3, 600, payload.data(),
                                                   300);
  uint64_t tail = 2 * (LogRecordFootprint(300) + LogRecordFootprint(0));
  PersistentRegion& log = (*table)->log_region();
  ASSERT_TRUE(log.NtStore(tail, record.data(), record.size() / 2).ok());
  ASSERT_TRUE(log.Fence().ok());

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->committed_epoch, 2u);
  // truncated_bytes counts valid-but-uncommitted records; the torn
  // half-record never CRC-validated, so it contributes zero — but the
  // truncation still zeroes it (the clean re-scan below proves it).
  EXPECT_EQ(stats->truncated_bytes, 0u);
  ExpectEpochBytes(**table, 1, 300);
  ExpectEpochBytes(**table, 2, 300);

  // The torn suffix is gone for good: ingest continues cleanly.
  Result<uint64_t> epoch = (*table)->Append(payload.data(), payload.size());
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 3u);
  ExpectEpochBytes(**table, 3, 300);
  Result<RecoveryStats> after = (*table)->Recover();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->torn_tail);
  EXPECT_EQ(after->committed_epoch, 3u);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, RecoveryCostScalesWithLogLength) {
  auto short_table = DurableTable::Create(&space_, nullptr, SmallOptions());
  auto long_table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(short_table.ok() && long_table.ok());
  EXPECT_EQ(IngestEpochs(short_table->get(), 2, 256), 2u);
  EXPECT_EQ(IngestEpochs(long_table->get(), 20, 256), 20u);
  Result<RecoveryStats> short_stats = (*short_table)->Recover();
  Result<RecoveryStats> long_stats = (*long_table)->Recover();
  ASSERT_TRUE(short_stats.ok() && long_stats.ok());
  EXPECT_GT(long_stats->modeled_seconds, short_stats->modeled_seconds)
      << "a longer committed log must cost more to scan and replay";
  ExpectOracleClean(**short_table);
  ExpectOracleClean(**long_table);
}

}  // namespace
}  // namespace pmemolap
