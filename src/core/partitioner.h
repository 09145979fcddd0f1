// Partitioner — NUMA-aware splitting of a large table across sockets and
// of each socket's share across worker threads (best practice #4 and the
// handcrafted SSB's data layout in §6.2: "the fact table is shuffled and
// striped across PMEM on both sockets and threads access only their near
// data in individual chunks").
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/morsel.h"
#include "topo/topology.h"

namespace pmemolap {

/// A contiguous range of tuple indexes [begin, end).
struct TupleRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// The share of one socket: which tuples it stores and how its local
/// workers split them.
struct SocketPartition {
  int socket = 0;
  TupleRange tuples;
  /// Disjoint per-worker sub-ranges of `tuples` ("individual access").
  std::vector<TupleRange> worker_ranges;
};

/// Even round-free partitioning: socket shares are contiguous, worker
/// shares are contiguous within the socket share, so every worker streams
/// sequentially through its own region.
class Partitioner {
 public:
  explicit Partitioner(const SystemTopology& topology)
      : topology_(topology) {}

  /// Splits `num_tuples` into one contiguous share per socket and
  /// `workers_per_socket` disjoint ranges within each share.
  Result<std::vector<SocketPartition>> Partition(
      uint64_t num_tuples, int workers_per_socket) const;

  /// Skew-aware variant (the paper notes that "creating optimal partitions
  /// is not always possible ... e.g., due to skewed data"): tuples carry
  /// per-chunk processing weights (chunk i covers tuples
  /// [i*chunk, (i+1)*chunk)), and boundaries are placed so every socket —
  /// and every worker within a socket — receives approximately equal
  /// total weight instead of equal tuple counts. Ranges stay contiguous,
  /// preserving sequential near-only scans.
  Result<std::vector<SocketPartition>> PartitionWeighted(
      uint64_t num_tuples, int workers_per_socket,
      const std::vector<double>& chunk_weights) const;

  /// Feeds a socket partitioning to the work-stealing executor: each
  /// socket's tuple share becomes one per-socket run queue of morsels
  /// (<= morsel_tuples tuples each, 0 = default). Morsel order within a
  /// queue preserves the socket's sequential scan direction.
  static MorselPlan ToMorsels(const std::vector<SocketPartition>& partitions,
                              uint64_t morsel_tuples);

 private:
  SystemTopology topology_;
};

}  // namespace pmemolap
