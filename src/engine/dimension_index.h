// DimensionIndex — the hash index used for SSB joins, in two flavors:
//
//  - kDash: the PMEM-optimized index of the handcrafted SSB (§6.2). One
//    probe touches one 256 B bucket (= one Optane internal line); the
//    paper replicates it per socket so probes are always near, which the
//    engine prices as near probes rather than building the copies.
//  - kChained: a PMEM-unaware chained hash table standing in for Hyrise's
//    index (§6.1): a probe chases bucket-head and node pointers, i.e.
//    several dependent sub-256 B random reads that amplify on PMEM.
//
// Both map keys to uint64 values. The engine builds them to price probes
// (ProbeCost, StorageBytes — neither depends on the values); the kernels
// resolve keys through dense arrays.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "dash/dash_table.h"

namespace pmemolap {

enum class IndexKind {
  kDash,     ///< 256 B bucket probes, PMEM-aware
  kChained,  ///< pointer-chasing probes, PMEM-unaware
};

/// Probe traffic characteristics of one index flavor.
struct ProbeCost {
  /// Random reads issued per probe (bucket loads / pointer hops).
  double accesses_per_probe = 1.0;
  /// Bytes touched per access.
  uint64_t access_bytes = 256;
};

class DimensionIndex {
 public:
  explicit DimensionIndex(IndexKind kind);

  Status Insert(uint64_t key, uint64_t payload);

  /// Batched probe: looks up `n` keys into `out` (0 for absent keys).
  void ProbeBatch(const uint64_t* keys, size_t n, uint64_t* out) const;

  uint64_t size() const;
  /// Bytes of index storage (the random-probe region size).
  uint64_t StorageBytes() const;
  ProbeCost probe_cost() const;
  IndexKind kind() const { return kind_; }

 private:
  IndexKind kind_;
  std::unique_ptr<DashTable> dash_;
  std::unordered_map<uint64_t, uint64_t> chained_;
};

}  // namespace pmemolap
