#include "topo/interleave.h"

#include <algorithm>
#include <cmath>

namespace pmemolap {

Result<InterleaveMap> InterleaveMap::Make(uint64_t stripe_bytes,
                                          int num_dimms) {
  if (stripe_bytes == 0 || (stripe_bytes & (stripe_bytes - 1)) != 0) {
    return Status::InvalidArgument("stripe_bytes must be a power of two");
  }
  if (num_dimms < 1) {
    return Status::InvalidArgument("num_dimms must be >= 1");
  }
  return InterleaveMap(stripe_bytes, num_dimms);
}

double InterleaveMap::ConcurrentDimms(int threads, uint64_t access_size,
                                      bool grouped,
                                      double stream_coverage) const {
  const double dimms = static_cast<double>(num_dimms_);
  if (threads < 1 || access_size == 0) return 1.0;
  if (grouped) {
    // One global sequential stream: the in-flight window spans the bytes all
    // threads are currently working on. Its stripe coverage (plus the stripe
    // boundary it straddles) bounds how many DIMMs can be busy at once.
    // Small grouped accesses collapse onto one or two DIMMs — the paper's
    // "nearly all threads operate on the same DIMM" regime.
    double window = static_cast<double>(threads) *
                    static_cast<double>(access_size);
    double covered = window / static_cast<double>(stripe_bytes_) + 1.0;
    return std::clamp(covered, 1.0, dimms);
  }
  // Individual streams sit at independent phases of the stripe rotation.
  // With T streams, the expected number of occupied DIMMs follows the
  // balls-into-bins occupancy E = D * (1 - (1 - k/D)^T); k = stream_coverage
  // stripes are kept in flight per stream (prefetch / posted-write window).
  double k = std::clamp(stream_coverage, 1.0, dimms);
  double t = static_cast<double>(threads);
  double occupied = dimms * (1.0 - std::pow(1.0 - k / dimms, t));
  return std::clamp(occupied, 1.0, dimms);
}

}  // namespace pmemolap
