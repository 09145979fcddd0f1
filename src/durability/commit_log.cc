#include "durability/commit_log.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace pmemolap {

namespace {

uint32_t RecordCrc(CommitRecord record) {
  record.crc = 0;
  return Crc32(&record, sizeof(record));
}

}  // namespace

std::vector<std::byte> EncodeCommitRecord(uint64_t epoch,
                                          uint64_t table_offset,
                                          uint64_t bytes,
                                          uint32_t payload_crc) {
  CommitRecord record;
  record.magic = kLogMagic;
  record.epoch = epoch;
  record.table_offset = table_offset;
  record.bytes = bytes;
  record.payload_crc = payload_crc;
  record.crc = RecordCrc(record);
  std::vector<std::byte> encoded(sizeof(record));
  std::memcpy(encoded.data(), &record, sizeof(record));
  return encoded;
}

LogScan ScanLog(const std::byte* data, uint64_t size) {
  static const CommitRecord kZero{};
  LogScan scan;
  for (uint64_t cursor = 0; cursor < size; cursor += sizeof(CommitRecord)) {
    // A short tail reads as zero-padded: all-zero is the clean end of the
    // log, anything else is a record running off the image.
    CommitRecord record;
    uint64_t avail = std::min<uint64_t>(sizeof(record), size - cursor);
    std::memcpy(&record, data + cursor, avail);
    if (std::memcmp(&record, &kZero, sizeof(record)) == 0) break;
    if (avail < sizeof(record) || record.magic != kLogMagic ||
        RecordCrc(record) != record.crc) {
      scan.torn_tail = true;  // torn write, garbage or bit rot
      break;
    }
    if (record.epoch <= scan.committed_epoch) {
      ++scan.duplicate_commits;
    } else {
      scan.records.push_back(ScannedRecord{record.epoch, record.table_offset,
                                           record.bytes,
                                           record.payload_crc});
      scan.committed_epoch = record.epoch;
      scan.committed_bytes = cursor + sizeof(record);
    }
    scan.valid_bytes = cursor + sizeof(record);
  }
  return scan;
}

}  // namespace pmemolap
