// Commit-log record framing and recovery scan.
//
// The log is an append-only byte stream of fixed-size commit records
// living in a PersistentRegion. Ingest writes each epoch's payload once,
// straight into the table image; the epoch's commit record is its
// durability point — once the record's bytes are in the persistence
// domain, the epoch is committed. The record names the epoch's table
// extent and carries the payload's CRC32, so recovery can re-validate
// the committed table bytes without a second copy of them.
//
// Framing is self-validating: a record carries a magic and a CRC32
// (reuse of common/crc32.h) computed over the record with the crc field
// zeroed. A crash can tear a record anywhere — mid-record, even
// mid-cache-line — and the scan detects it as a CRC mismatch and stops
// there. This file only encodes and scans bytes; the append *ordering*
// (payload fence → commit record → fence) lives in DurableTable where
// the persist-order lint rule can see the primitive call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmemolap {

/// On-log commit record. Fixed layout, memcpy'd — never cast in place.
struct CommitRecord {
  uint32_t magic = 0;         ///< kLogMagic
  uint32_t crc = 0;           ///< CRC32 of the record with crc = 0
  uint64_t epoch = 0;         ///< 1-based ingest epoch
  uint64_t table_offset = 0;  ///< first table byte of the epoch's payload
  uint64_t bytes = 0;         ///< payload length in the table
  uint32_t payload_crc = 0;   ///< CRC32 of the payload's table bytes
  uint32_t reserved = 0;
};
static_assert(sizeof(CommitRecord) == 40, "commit record layout");

inline constexpr uint32_t kLogMagic = 0x504D4C47;  // "PMLG"

/// Serializes the commit record of `epoch`, whose payload occupies
/// [table_offset, table_offset + bytes) of the table with CRC32
/// `payload_crc`.
std::vector<std::byte> EncodeCommitRecord(uint64_t epoch,
                                          uint64_t table_offset,
                                          uint64_t bytes,
                                          uint32_t payload_crc);

/// One validated commit record located in the log image.
struct ScannedRecord {
  uint64_t epoch = 0;
  uint64_t table_offset = 0;
  uint64_t bytes = 0;
  uint32_t payload_crc = 0;
};

/// Result of scanning a (possibly crash-torn) log image.
struct LogScan {
  /// One record per committed epoch, in log (= epoch) order.
  std::vector<ScannedRecord> records;
  /// Highest epoch with a valid commit record (0 = none committed).
  uint64_t committed_epoch = 0;
  /// First byte past that epoch's commit record — recovery truncates the
  /// log here, dropping any record past it.
  uint64_t committed_bytes = 0;
  /// First byte past the last valid record.
  uint64_t valid_bytes = 0;
  /// Scan stopped on a CRC mismatch / bad magic / record running off the
  /// image rather than a clean zeroed tail: a torn or corrupt record was
  /// dropped.
  bool torn_tail = false;
  /// Commit records for an epoch at or below the already-committed one —
  /// a corruption pattern recovery tolerates idempotently.
  uint64_t duplicate_commits = 0;
};

/// Scans `size` bytes of log image. Pure function of the bytes: callers
/// pass either the persisted image (crash recovery) or the volatile one.
LogScan ScanLog(const std::byte* data, uint64_t size);

}  // namespace pmemolap
