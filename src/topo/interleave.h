// PMEM DIMM interleaving address map (paper Figure 2).
//
// Data on one socket's PMEM is striped across its 6 DIMMs in 4 KB units: the
// first 4 KB lives on DIMM 0, the next on DIMM 1, ..., wrapping after 24 KB.
// Accesses therefore hit different numbers of DIMMs depending on their offset
// and size — the mechanism behind the paper's 4 KB sweet spot and the
// "all threads on one DIMM" collapse for small grouped accesses.
#pragma once

#include <cstdint>

#include "common/status.h"

namespace pmemolap {

/// Maps byte offsets within one socket's interleaved PMEM region to DIMMs.
class InterleaveMap {
 public:
  /// stripe_bytes must be a power of two; num_dimms >= 1.
  static Result<InterleaveMap> Make(uint64_t stripe_bytes, int num_dimms);

  uint64_t stripe_bytes() const { return stripe_bytes_; }
  int num_dimms() const { return num_dimms_; }

  /// Expected number of *distinct DIMMs kept busy concurrently* when
  /// `threads` threads issue accesses of `access_size` bytes each:
  ///
  ///  - grouped (one global sequential stream): consecutive accesses of the
  ///    group map to consecutive addresses, so at any instant the in-flight
  ///    window spans ~threads * access_size bytes => that window's DIMM
  ///    coverage bounds the parallelism.
  ///  - individual (disjoint streams at independent phases): each stream
  ///    walks all DIMMs over time; with enough streams all DIMMs stay busy.
  ///
  /// Returns a value in [1, num_dimms].
  ///
  /// `stream_coverage` is the expected number of stripes one individual
  /// stream keeps in flight (device prefetch window for reads; the posted
  /// WPQ write window spreads writes much wider).
  double ConcurrentDimms(int threads, uint64_t access_size, bool grouped,
                         double stream_coverage = 1.3) const;

 private:
  InterleaveMap(uint64_t stripe_bytes, int num_dimms)
      : stripe_bytes_(stripe_bytes), num_dimms_(num_dimms) {}

  uint64_t stripe_bytes_;
  int num_dimms_;
};

}  // namespace pmemolap
