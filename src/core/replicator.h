// DimensionReplicator — per-socket replication of small tables.
//
// §6.2: "Since the dimension tables are very small in comparison to the
// fact table, we replicate them on both sockets to avoid far random access,
// which would drastically decrease the bandwidth utilization."
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "core/pmem_space.h"

namespace pmemolap {

/// Holds one copy of a byte payload per socket; readers fetch the copy
/// near their own socket.
class ReplicatedTable {
 public:
  ReplicatedTable() = default;
  explicit ReplicatedTable(std::vector<Allocation> copies)
      : copies_(std::move(copies)) {}

  int num_copies() const { return static_cast<int>(copies_.size()); }

  uint64_t size() const { return copies_.empty() ? 0 : copies_[0].size(); }

  Allocation& copy(int index) { return copies_[static_cast<size_t>(index)]; }
  const Allocation& copy(int index) const {
    return copies_[static_cast<size_t>(index)];
  }

  /// Index of the first replica whose bytes [offset, offset + size) are
  /// free of poisoned lines, preferring `socket`'s local copy and failing
  /// over round-robin (best practice #4's "near first" with a health
  /// check). kDataLoss when every replica is poisoned over the range.
  Result<int> HealthyCopyIndex(int socket, uint64_t offset,
                               uint64_t size) const;

 private:
  size_t CopyIndexFor(int socket) const {
    int n = num_copies();
    return static_cast<size_t>(((socket % n) + n) % n);
  }

  std::vector<Allocation> copies_;
};

/// Copies payloads onto every socket's media.
class DimensionReplicator {
 public:
  explicit DimensionReplicator(PmemSpace* space) : space_(space) {}

  /// Replicates `bytes` of `data` onto every socket.
  Result<ReplicatedTable> Replicate(const std::byte* data, uint64_t bytes,
                                    Media media);

  /// Heuristic from the paper: replicate when the table is tiny relative
  /// to the fact data (dimensions are < 10% of lineorder in the SSB).
  static bool ShouldReplicate(uint64_t table_bytes, uint64_t fact_bytes) {
    return fact_bytes == 0 || table_bytes * 10 <= fact_bytes;
  }

 private:
  PmemSpace* space_;
};

}  // namespace pmemolap
