// PerWorkerLog — durable append-only logging per the paper's small-write
// insight: "workloads requiring many small writes, e.g., appending to a
// log file, should be performed on individual memory locations, e.g., one
// log per worker" (insight #6), with 256 B entries matching Optane's
// internal granularity.
//
// Entries are self-validating: a 12 B header carries a CRC-32 over the
// sequence number, length, and payload — the framing a recovery scan needs
// to find a log's durable prefix, since stores below the entry size are
// not atomic. The durability layer's commit log frames its records the
// same way, and DurableTable::Recover is the recovery scan.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pmem_space.h"
#include "core/profile.h"

namespace pmemolap {

/// A set of independent append-only logs, one per worker, each in its own
/// memory region so the write-combining buffers never see interleaved
/// streams.
class PerWorkerLog {
 public:
  /// Fixed entry size; 256 B avoids read-modify-write on Optane.
  static constexpr uint64_t kEntryBytes = 256;
  /// Per-entry header: crc32 + sequence + length (+ padding to 12 B).
  static constexpr uint64_t kHeaderBytes = 12;
  /// Payload capacity of one entry.
  static constexpr uint64_t kMaxPayloadBytes = kEntryBytes - kHeaderBytes;

  /// Creates `workers` logs of `capacity_entries` each, striped round-robin
  /// across the sockets' PMEM.
  static Result<PerWorkerLog> Create(PmemSpace* space, int workers,
                                     uint64_t capacity_entries);

  int workers() const { return static_cast<int>(logs_.size()); }
  uint64_t capacity_entries() const { return capacity_entries_; }
  uint64_t entries(int worker) const {
    return counts_[static_cast<size_t>(worker)];
  }

  /// Appends one entry (payload truncated to kMaxPayloadBytes) to a
  /// worker's log.
  Status Append(int worker, const std::byte* payload, uint64_t payload_size,
                ExecutionProfile* profile = nullptr);

  /// Reads the payload of entry `index` into `out` (kMaxPayloadBytes or
  /// larger; zero-padded past the stored length). Returns the stored
  /// payload length, or DataLoss when the entry fails its CRC.
  // lint:allow(test-only-api): read-back oracle for what Append writes
  Result<uint64_t> ReadEntry(int worker, uint64_t index,
                             std::byte* out) const;

  /// Socket holding a worker's log.
  int SocketOf(int worker) const {
    return logs_[static_cast<size_t>(worker)].placement().socket;
  }

 private:
  PerWorkerLog(std::vector<Allocation> logs, uint64_t capacity_entries)
      : logs_(std::move(logs)),
        counts_(logs_.size(), 0),
        capacity_entries_(capacity_entries) {}

  std::vector<Allocation> logs_;
  std::vector<uint64_t> counts_;
  uint64_t capacity_entries_ = 0;
};

}  // namespace pmemolap
