// Redo-log record framing and recovery scan.
//
// The log is an append-only byte stream of CRC32-framed records living in
// a PersistentRegion. Two record types drive the ingest protocol:
//
//   kData    epoch's payload plus the table offset it applies at
//   kCommit  the epoch's durability point — once this record's bytes are
//            in the persistence domain, the epoch is committed
//
// Framing is self-validating: a 32-byte header carries a magic, the
// payload length, and a CRC32 (reuse of common/crc32.h) computed over the
// header with the crc field zeroed plus the payload. A crash can tear a
// record anywhere — mid-header, mid-payload, even mid-cache-line — and the
// scan detects it as a CRC mismatch and truncates there. This file only
// encodes and scans bytes; the append *ordering* (store → flush → fence →
// commit) lives in DurableTable where the persist-order lint rule can
// see the primitive call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace pmemolap {

enum class LogRecordType : uint16_t {
  kData = 1,
  kCommit = 2,
};

/// On-log record header. Fixed layout, memcpy'd — never cast in place.
struct LogRecordHeader {
  uint32_t magic = 0;         ///< kLogMagic
  uint16_t type = 0;          ///< LogRecordType
  uint16_t reserved = 0;
  uint64_t epoch = 0;         ///< 1-based ingest epoch
  uint64_t table_offset = 0;  ///< where a kData payload applies
  uint32_t payload_bytes = 0;
  uint32_t crc = 0;  ///< CRC32(header with crc=0, then payload)
};
static_assert(sizeof(LogRecordHeader) == 32, "log header layout");

inline constexpr uint32_t kLogMagic = 0x504D4C47;  // "PMLG"
/// Records are padded to this multiple so headers stay line-friendly.
inline constexpr uint64_t kLogRecordAlign = 8;

/// Total on-log footprint of a record with `payload_bytes` of payload.
uint64_t LogRecordFootprint(uint64_t payload_bytes);

/// Serializes a data record (header + payload, padded to kLogRecordAlign).
std::vector<std::byte> EncodeDataRecord(uint64_t epoch, uint64_t table_offset,
                                        const std::byte* payload,
                                        uint32_t payload_bytes);
/// Serializes a commit marker for `epoch`.
std::vector<std::byte> EncodeCommitRecord(uint64_t epoch);

/// One validated record located in the log image.
struct ScannedRecord {
  LogRecordType type = LogRecordType::kData;
  uint64_t epoch = 0;
  uint64_t table_offset = 0;
  uint32_t payload_bytes = 0;
  /// Offset of the payload's first byte within the log image.
  uint64_t payload_offset = 0;
};

/// Result of scanning a (possibly crash-torn) log image.
struct LogScan {
  std::vector<ScannedRecord> records;  ///< valid records, log order
  /// Highest epoch with a valid commit marker (0 = none committed).
  uint64_t committed_epoch = 0;
  /// First byte past that epoch's commit record — recovery truncates the
  /// log here, dropping any abandoned in-flight suffix.
  uint64_t committed_bytes = 0;
  /// First byte past the last valid record — the append tail after
  /// recovery truncates the torn suffix.
  uint64_t valid_bytes = 0;
  /// Scan stopped on a CRC mismatch / impossible header rather than a
  /// clean zeroed tail: a torn or corrupt record was dropped.
  bool torn_tail = false;
  /// Commit markers for an epoch at or below the already-committed one —
  /// a corruption pattern recovery tolerates idempotently.
  uint64_t duplicate_commits = 0;
  /// Valid data records after the last commit marker (the in-flight,
  /// never-committed epoch a crash abandoned).
  uint64_t uncommitted_records = 0;
};

/// Scans `size` bytes of log image. Pure function of the bytes: callers
/// pass either the persisted image (crash recovery) or the volatile one.
LogScan ScanLog(const std::byte* data, uint64_t size);

}  // namespace pmemolap
