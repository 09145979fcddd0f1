// DurableTable::Recover tests: crash-point recovery of committed epochs,
// idempotent re-recovery (including a crash *during* recovery), payload
// CRC verification without replay, truncation of the table's uncommitted
// tail, and tolerance of log corruptions — duplicate commit records and
// torn tails — injected straight into the log region.
//
// An ntstore-mode Append is 4 persistence boundaries: payload NtStore,
// table Fence, commit-record NtStore, log Fence. Epoch e's Append spans
// boundaries 4(e-1) .. 4(e-1)+3.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "durability/commit_log.h"
#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"

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
  // Recovery of a healthy table verifies every committed epoch and
  // copies nothing; running it again changes nothing.
  auto table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 3, 500), 3u);

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 3u);
  EXPECT_EQ(stats->verified_epochs, 3u);
  EXPECT_EQ(stats->verified_bytes, 1500u);
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
  // Epoch 2 starts at boundary 4. Crash at its first primitive with
  // survival_p=0: epoch 2 fully lost.
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/4,
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

TEST_F(RecoveryTest, UncommittedTailIsZeroedByRecovery) {
  // Boundary 5 is epoch 2's payload fence; with survival_p=1 the drain
  // lands, so epoch 2's bytes survive in the table past the committed
  // end — but no commit record names them. Recovery keeps epoch 1 and
  // zeroes the orphaned tail.
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/5,
                                /*accepted_survival_p=*/1.0});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 400), 1u);
  const std::byte* image = (*table)->table_region().data();
  ASSERT_NE(image[400 + 1], std::byte{0})
      << "the uncommitted payload survived the crash";

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 1u);
  ExpectEpochBytes(**table, 1, 400);
  std::vector<std::byte> zeros(400);
  EXPECT_EQ(std::memcmp(image + 400, zeros.data(), zeros.size()), 0)
      << "recovery must truncate the table at the committed end";
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, CrashAfterCommitFenceIsReplayedNotLost) {
  // Boundary 7 is epoch 2's commit fence. With survival_p=1 the drain of
  // the commit record lands although the fence never returned: the
  // epoch is durable while Append surfaced Unavailable, and recovery
  // must keep it — from the table bytes already there, with no replay.
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/7,
                                /*accepted_survival_p=*/1.0});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 400), 1u)
      << "epoch 2's Append must surface the crash";

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 2u)
      << "zero committed epochs may be lost";
  EXPECT_EQ(stats->verified_epochs, 2u);
  EXPECT_EQ((*table)->committed_epoch(), 2u);
  ExpectEpochBytes(**table, 1, 400);
  ExpectEpochBytes(**table, 2, 400);
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, CrashDuringRecoveryConvergesOnRerun) {
  // Boundary 8 is epoch 3's payload NtStore: a seeded prefix of it lands
  // past the committed end.
  CrashInjector crash(/*seed=*/0xF001, CrashPlan{/*boundary_index=*/8});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 3, 400), 2u);

  // Recovery is two boundaries: the log truncation, then the table's.
  // Cut the first attempt down between them.
  crash.AcknowledgeCrash();
  crash.Arm(static_cast<int64_t>(crash.boundaries_seen()) + 1);
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

TEST_F(RecoveryTest, CorruptCommittedByteIsDataLossNamingTheEpoch) {
  // A committed table byte of epoch 2 flips while the process is down:
  // the commit record's payload CRC must catch it — recovery reports the
  // epoch instead of republishing bytes nobody wrote.
  CrashInjector crash(/*seed=*/0xF001, CrashPlan{/*boundary_index=*/12});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 4, 300), 3u);
  crash.AcknowledgeCrash();

  PersistentRegion& image = (*table)->table_region();
  std::byte flipped = image.data()[300 + 17] ^ std::byte{0x08};
  ASSERT_TRUE(image.NtStore(300 + 17, &flipped, 1).ok());
  ASSERT_TRUE(image.Fence().ok());

  Result<RecoveryStats> stats = (*table)->Recover();
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(stats.status().ToString().find("epoch 2:"), std::string::npos)
      << stats.status().ToString();
}

TEST_F(RecoveryTest, RecoverWritesNoPayloadLine) {
  // 26 committed epochs, a crash mid-epoch 27, then recovery: the table
  // keeps its store count and ends with every line clean — recovery only
  // reads payload lines, so none is put in flight.
  constexpr int kCommitted = 26;
  constexpr uint64_t kEpochBytes = 1000;
  CrashInjector crash(/*seed=*/0xF001,
                      CrashPlan{/*boundary_index=*/4 * kCommitted + 1});
  auto table = DurableTable::Create(&space_, &crash, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), kCommitted + 1, kEpochBytes),
            static_cast<uint64_t>(kCommitted));
  const PersistentRegion& image = (*table)->table_region();
  const uint64_t store_lines = image.store_lines();

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, static_cast<uint64_t>(kCommitted));
  EXPECT_EQ(stats->verified_bytes, kCommitted * kEpochBytes);
  EXPECT_EQ(image.store_lines(), store_lines);
  for (uint64_t line = 0; line * kCacheLineBytes < image.size(); ++line) {
    ASSERT_EQ(image.line_state(line), PersistLineState::kClean)
        << "line " << line;
  }
  for (uint64_t e = 1; e <= kCommitted; ++e) {
    ExpectEpochBytes(**table, e, kEpochBytes);
  }
  ExpectOracleClean(**table);
}

TEST_F(RecoveryTest, DuplicateCommitMarkerIsToleratedAndTruncated) {
  auto table = DurableTable::Create(&space_, nullptr, SmallOptions());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(IngestEpochs(table->get(), 2, 300), 2u);

  // Plant a CRC-valid duplicate commit for epoch 1 at the log tail — the
  // corruption pattern a partial truncation could leave behind.
  std::vector<std::byte> payload = Pattern(300, 1);
  uint64_t tail = 2 * sizeof(CommitRecord);
  std::vector<std::byte> dup =
      EncodeCommitRecord(1, 0, 300, Crc32(payload.data(), payload.size()));
  PersistentRegion& log = (*table)->log_region();
  ASSERT_TRUE(log.NtStore(tail, dup.data(), dup.size()).ok());
  ASSERT_TRUE(log.Fence().ok());

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->duplicate_commits, 1u);
  EXPECT_EQ(stats->committed_epoch, 2u);
  EXPECT_EQ(stats->truncated_bytes, sizeof(CommitRecord))
      << "the duplicate record is dropped by the truncation";
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

  // Plant the first half of epoch 3's commit record at the tail — an
  // append a crash cut mid-write. The CRC must stop the scan; recovery
  // truncates and the table stays at epoch 2.
  std::vector<std::byte> payload = Pattern(300, 3);
  std::vector<std::byte> record =
      EncodeCommitRecord(3, 600, 300, Crc32(payload.data(), payload.size()));
  uint64_t tail = 2 * sizeof(CommitRecord);
  PersistentRegion& log = (*table)->log_region();
  ASSERT_TRUE(log.NtStore(tail, record.data(), record.size() / 2).ok());
  ASSERT_TRUE(log.Fence().ok());

  Result<RecoveryStats> stats = (*table)->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->committed_epoch, 2u);
  // truncated_bytes counts valid records past the last commit; the torn
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
      << "more committed epochs must cost more to scan and verify";
  ExpectOracleClean(**short_table);
  ExpectOracleClean(**long_table);
}

}  // namespace
}  // namespace pmemolap
