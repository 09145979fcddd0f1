#include "core/per_worker_log.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/crc32.h"

namespace pmemolap {

namespace {

struct EntryHeader {
  uint32_t crc = 0;
  uint32_t sequence = 0;
  uint16_t length = 0;
  uint16_t reserved = 0;
};
static_assert(sizeof(EntryHeader) == PerWorkerLog::kHeaderBytes);

uint32_t EntryCrc(uint32_t sequence, uint16_t length,
                  const std::byte* payload) {
  uint32_t crc = Crc32(&sequence, sizeof(sequence));
  crc = Crc32(&length, sizeof(length), crc);
  return Crc32(payload, length, crc);
}

}  // namespace

Result<PerWorkerLog> PerWorkerLog::Create(PmemSpace* space, int workers,
                                          uint64_t capacity_entries) {
  if (workers < 1 || capacity_entries == 0) {
    return Status::InvalidArgument("workers and capacity must be positive");
  }
  std::vector<Allocation> logs;
  logs.reserve(static_cast<size_t>(workers));
  const int sockets = space->topology().sockets();
  for (int worker = 0; worker < workers; ++worker) {
    Result<Allocation> log =
        space->Allocate(capacity_entries * kEntryBytes,
                        MemPlacement{Media::kPmem, worker % sockets});
    if (!log.ok()) {
      for (const Allocation& done : logs) space->Release(done);
      return log.status();
    }
    logs.push_back(std::move(log.value()));
  }
  return PerWorkerLog(std::move(logs), capacity_entries);
}

Status PerWorkerLog::Append(int worker, const std::byte* payload,
                            uint64_t payload_size,
                            ExecutionProfile* profile) {
  if (worker < 0 || worker >= workers()) {
    return Status::InvalidArgument("worker out of range");
  }
  uint64_t& count = counts_[static_cast<size_t>(worker)];
  if (count >= capacity_entries_) {
    return Status::ResourceExhausted("log full");
  }
  Allocation& log = logs_[static_cast<size_t>(worker)];
  std::byte* slot = log.data() + count * kEntryBytes;

  EntryHeader header;
  header.sequence = static_cast<uint32_t>(count);
  header.length =
      static_cast<uint16_t>(std::min<uint64_t>(payload_size,
                                               kMaxPayloadBytes));
  std::byte* body = slot + kHeaderBytes;
  std::memcpy(body, payload, header.length);
  if (header.length < kMaxPayloadBytes) {
    std::memset(body + header.length, 0, kMaxPayloadBytes - header.length);
  }
  header.crc = EntryCrc(header.sequence, header.length, body);
  // On real PMEM: write body, sfence, then the header word last — the CRC
  // makes the entry valid atomically.
  std::memcpy(slot, &header, sizeof(header));
  ++count;

  if (profile != nullptr) {
    profile->RecordSequential(OpType::kWrite, Media::kPmem,
                              log.placement().socket, kEntryBytes,
                              kEntryBytes, 1, "log-append");
  }
  return Status::OK();
}

Result<uint64_t> PerWorkerLog::ReadEntry(int worker, uint64_t index,
                                         std::byte* out) const {
  if (worker < 0 || worker >= workers()) {
    return Status::InvalidArgument("worker out of range");
  }
  if (index >= counts_[static_cast<size_t>(worker)]) {
    return Status::OutOfRange("entry index past end of log");
  }
  const Allocation& log = logs_[static_cast<size_t>(worker)];
  const std::byte* slot = log.data() + index * kEntryBytes;
  EntryHeader header;
  std::memcpy(&header, slot, sizeof(header));
  if (header.length > kMaxPayloadBytes) {
    return Status::Internal("corrupt entry length");
  }
  const std::byte* body = slot + kHeaderBytes;
  if (EntryCrc(header.sequence, header.length, body) != header.crc) {
    return Status::DataLoss("entry " + std::to_string(index) + " of worker " +
                            std::to_string(worker) + " fails its CRC");
  }
  std::memcpy(out, body, kMaxPayloadBytes);
  return static_cast<uint64_t>(header.length);
}

}  // namespace pmemolap
