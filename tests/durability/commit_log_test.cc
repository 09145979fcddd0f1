// Commit-log framing and scan tests: CRC-validated roundtrips plus the
// corruption patterns recovery must survive — torn tails, truncated
// records, garbage headers, duplicate commit records.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "durability/commit_log.h"

namespace pmemolap {
namespace {

constexpr uint64_t kRecord = sizeof(CommitRecord);

/// The commit record of epoch `epoch` for a `bytes`-long payload at
/// `offset`, with a payload CRC that names the epoch.
std::vector<std::byte> Commit(uint64_t epoch, uint64_t offset,
                              uint64_t bytes) {
  return EncodeCommitRecord(epoch, offset, bytes,
                            0xC0DE0000u + static_cast<uint32_t>(epoch));
}

/// A zero-initialized log image holding the given records back to back.
std::vector<std::byte> BuildLog(
    const std::vector<std::vector<std::byte>>& records,
    uint64_t image_size = 4096) {
  std::vector<std::byte> image(image_size);
  uint64_t tail = 0;
  for (const auto& record : records) {
    std::memcpy(image.data() + tail, record.data(), record.size());
    tail += record.size();
  }
  return image;
}

TEST(CommitLogTest, RecordIsFixedSize) {
  EXPECT_EQ(Commit(1, 0, 100).size(), kRecord);
  EXPECT_EQ(Commit(7, uint64_t{5} << 32, uint64_t{6} << 32).size(), kRecord)
      << "extents are 64-bit: no 4 GiB framing limit";
}

TEST(CommitLogTest, ScanRoundTripsCommittedEpochs) {
  std::vector<std::byte> image = BuildLog({
      Commit(1, 0, 100),
      Commit(2, 100, uint64_t{5} << 32),
  });
  LogScan scan = ScanLog(image.data(), image.size());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.committed_epoch, 2u);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.duplicate_commits, 0u);
  EXPECT_EQ(scan.committed_bytes, 2 * kRecord);
  EXPECT_EQ(scan.committed_bytes, scan.valid_bytes);

  EXPECT_EQ(scan.records[1].epoch, 2u);
  EXPECT_EQ(scan.records[1].table_offset, 100u);
  EXPECT_EQ(scan.records[1].bytes, uint64_t{5} << 32);
  EXPECT_EQ(scan.records[1].payload_crc, 0xC0DE0002u);
}

TEST(CommitLogTest, CorruptPayloadStopsTheScanAsTornTail) {
  std::vector<std::byte> image = BuildLog({
      Commit(1, 0, 128),
      Commit(2, 128, 128),
  });
  // Flip one byte of epoch 2's record payload (its extent): the record
  // CRC must catch it and the scan must stop there, keeping epoch 1
  // committed.
  image[kRecord + offsetof(CommitRecord, bytes)] ^= std::byte{0x40};
  LogScan scan = ScanLog(image.data(), image.size());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.committed_epoch, 1u);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, kRecord);
}

TEST(CommitLogTest, TruncatedTailRecordIsDropped) {
  // The image ends mid-record: a crash cut the append — torn tail,
  // committed prefix kept.
  std::vector<std::byte> full = BuildLog({
      Commit(1, 0, 64),
      Commit(2, 64, 256),
  });
  LogScan scan = ScanLog(full.data(), kRecord + 20);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.committed_epoch, 1u);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.committed_bytes, kRecord);
}

TEST(CommitLogTest, GarbageHeaderIsATornTail) {
  std::vector<std::byte> image = BuildLog({Commit(1, 0, 64)});
  // Non-zero garbage where the next record would be: bad magic.
  image[kRecord + 3] = std::byte{0x5A};
  LogScan scan = ScanLog(image.data(), image.size());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.committed_epoch, 1u);
}

TEST(CommitLogTest, CleanZeroedTailIsNotTorn) {
  // Including a zeroed tail shorter than one record.
  std::vector<std::byte> image = BuildLog({Commit(1, 0, 64)});
  for (uint64_t size : {uint64_t{4096}, kRecord + 20}) {
    LogScan scan = ScanLog(image.data(), size);
    EXPECT_FALSE(scan.torn_tail) << size;
    EXPECT_EQ(scan.committed_epoch, 1u) << size;
  }
}

TEST(CommitLogTest, DuplicateCommitMarkersAreToleratedOnce) {
  // A valid, CRC-clean commit record for an epoch at or below the
  // committed one (e.g. left behind after a partial truncation) must be
  // counted and excluded from the committed prefix — first commit wins,
  // so recovery's truncation deletes the duplicate.
  std::vector<std::byte> image = BuildLog({
      Commit(1, 0, 64),
      Commit(1, 0, 64),  // duplicate
  });
  LogScan scan = ScanLog(image.data(), image.size());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.committed_epoch, 1u);
  EXPECT_EQ(scan.duplicate_commits, 1u);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.committed_bytes, kRecord)
      << "the duplicate sits past the truncation point";
  EXPECT_EQ(scan.valid_bytes, 2 * kRecord);
}

TEST(CommitLogTest, ScanIsAPureFunctionOfTheBytes) {
  std::vector<std::byte> image = BuildLog({Commit(1, 0, 200)});
  LogScan a = ScanLog(image.data(), image.size());
  LogScan b = ScanLog(image.data(), image.size());
  EXPECT_EQ(a.committed_epoch, b.committed_epoch);
  EXPECT_EQ(a.valid_bytes, b.valid_bytes);
  EXPECT_EQ(a.records.size(), b.records.size());
}

}  // namespace
}  // namespace pmemolap
