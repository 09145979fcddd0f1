#include "device/optane_dimm.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pmemolap {

double OptaneDimm::ReadAmplification(uint64_t access_size,
                                     bool sequential) const {
  if (access_size == 0) return 1.0;
  if (sequential) {
    // Consecutive requests are resolved from the buffered 256 B internal
    // line; no read amplification regardless of access size (paper §3.1:
    // "accesses smaller than Optane's 256 Byte granularity still achieve
    // 30+ GB/s").
    return 1.0;
  }
  // A random access always fetches whole internal lines.
  const uint64_t line = spec_.internal_line_bytes;
  uint64_t lines = (access_size + line - 1) / line;
  return static_cast<double>(lines * line) / static_cast<double>(access_size);
}

double OptaneDimm::WriteAmplification(uint64_t access_size,
                                      double combine_fraction) const {
  if (access_size == 0) return 1.0;
  combine_fraction = std::clamp(combine_fraction, 0.0, 1.0);
  const uint64_t line = spec_.internal_line_bytes;
  if (access_size >= line) {
    // Full lines dominate; only the (at most two) partial boundary lines
    // can amplify. Approximate with the combined fraction applied to the
    // partial remainder.
    uint64_t remainder = access_size % line;
    if (remainder == 0) return 1.0;
    double partial_fraction =
        static_cast<double>(remainder) / static_cast<double>(access_size);
    double rmw_cost = 2.0 * static_cast<double>(line) /
                      static_cast<double>(remainder);
    return (1.0 - partial_fraction) +
           partial_fraction *
               (combine_fraction * 1.0 + (1.0 - combine_fraction) * rmw_cost);
  }
  // Sub-line write: if combined into a full line with neighbors, it costs
  // its own bytes; otherwise the DIMM performs a read-modify-write of the
  // full internal line (read line + write line = 2 lines of media traffic).
  double rmw_cost =
      2.0 * static_cast<double>(line) / static_cast<double>(access_size);
  return combine_fraction * 1.0 + (1.0 - combine_fraction) * rmw_cost;
}

double OptaneDimm::LifetimeYears(GigabytesPerSecond media_write_gbps) const {
  if (media_write_gbps <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  constexpr double kSecondsPerYear = 365.25 * 24 * 3600;
  double endurance_gb = spec_.endurance_petabytes * 1e6;  // PB -> GB
  return endurance_gb / (media_write_gbps * kSecondsPerYear);
}

}  // namespace pmemolap
