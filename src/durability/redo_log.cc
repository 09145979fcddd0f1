#include "durability/redo_log.h"

#include <cstring>

#include "common/crc32.h"

namespace pmemolap {

namespace {

uint32_t RecordCrc(LogRecordHeader header, const std::byte* payload,
                   uint32_t payload_bytes) {
  header.crc = 0;
  uint32_t crc = Crc32(&header, sizeof(header));
  if (payload_bytes > 0) crc = Crc32(payload, payload_bytes, crc);
  return crc;
}

std::vector<std::byte> Encode(LogRecordHeader header, const std::byte* payload,
                              uint32_t payload_bytes) {
  header.payload_bytes = payload_bytes;
  header.crc = RecordCrc(header, payload, payload_bytes);
  std::vector<std::byte> bytes(LogRecordFootprint(payload_bytes));
  std::memcpy(bytes.data(), &header, sizeof(header));
  if (payload_bytes > 0) {
    std::memcpy(bytes.data() + sizeof(header), payload, payload_bytes);
  }
  return bytes;  // padding bytes stay zero
}

}  // namespace

uint64_t LogRecordFootprint(uint64_t payload_bytes) {
  uint64_t raw = sizeof(LogRecordHeader) + payload_bytes;
  return (raw + kLogRecordAlign - 1) / kLogRecordAlign * kLogRecordAlign;
}

std::vector<std::byte> EncodeDataRecord(uint64_t epoch, uint64_t table_offset,
                                        const std::byte* payload,
                                        uint32_t payload_bytes) {
  LogRecordHeader header;
  header.magic = kLogMagic;
  header.type = static_cast<uint16_t>(LogRecordType::kData);
  header.epoch = epoch;
  header.table_offset = table_offset;
  return Encode(header, payload, payload_bytes);
}

std::vector<std::byte> EncodeCommitRecord(uint64_t epoch) {
  LogRecordHeader header;
  header.magic = kLogMagic;
  header.type = static_cast<uint16_t>(LogRecordType::kCommit);
  header.epoch = epoch;
  return Encode(header, nullptr, 0);
}

LogScan ScanLog(const std::byte* data, uint64_t size) {
  LogScan scan;
  uint64_t cursor = 0;
  uint64_t records_since_commit = 0;
  while (cursor + sizeof(LogRecordHeader) <= size) {
    LogRecordHeader header;
    std::memcpy(&header, data + cursor, sizeof(header));
    if (header.magic == 0 && header.crc == 0 && header.payload_bytes == 0) {
      break;  // clean zeroed tail: end of log
    }
    if (header.magic != kLogMagic) {
      scan.torn_tail = true;  // garbage where a header should be
      break;
    }
    uint64_t footprint = LogRecordFootprint(header.payload_bytes);
    if (cursor + footprint > size) {
      scan.torn_tail = true;  // truncated tail: payload runs off the log
      break;
    }
    const std::byte* payload = data + cursor + sizeof(header);
    if (RecordCrc(header, payload, header.payload_bytes) != header.crc) {
      scan.torn_tail = true;  // torn write or bit rot inside the record
      break;
    }
    ScannedRecord record;
    record.type = static_cast<LogRecordType>(header.type);
    record.epoch = header.epoch;
    record.table_offset = header.table_offset;
    record.payload_bytes = header.payload_bytes;
    record.payload_offset = cursor + sizeof(header);
    if (record.type == LogRecordType::kCommit) {
      if (record.epoch <= scan.committed_epoch) {
        ++scan.duplicate_commits;
      } else {
        scan.committed_epoch = record.epoch;
        scan.committed_bytes = cursor + footprint;
      }
      records_since_commit = 0;
    } else {
      ++records_since_commit;
    }
    scan.records.push_back(record);
    cursor += footprint;
    scan.valid_bytes = cursor;
  }
  scan.uncommitted_records = records_since_commit;
  return scan;
}

}  // namespace pmemolap
