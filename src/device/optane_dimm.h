// Model of a single Intel Optane DC Persistent Memory DIMM.
//
// Mechanisms modeled (paper Sections 2.1, 3.1, 4.1):
//  - 256 B internal access granularity ("XPLine"): the CPU issues 64 B cache
//    lines, the DIMM reads/writes 256 B internally. Sub-line *sequential*
//    accesses are served from the internal line buffer without
//    amplification; sub-line *random* accesses amplify by 256/size.
//  - Writes smaller than 256 B that cannot be combined trigger a
//    read-modify-write of the full internal line.
//  - Per-DIMM sequential service rates: the 6 DIMMs of a socket together
//    give the paper's ~40 GB/s read and ~12.6 GB/s write peaks.
//  - Device-internal prefetch: sequential streams are detected per DIMM and
//    achieve the full sequential rate; random access loses the prefetch.
//  - Wear: media writes (after amplification) are accounted per DIMM.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace pmemolap {

/// Tunable Optane DIMM parameters. Defaults are calibrated so that a socket
/// of six DIMMs reproduces the paper's aggregate numbers.
struct OptaneDimmSpec {
  /// Sequential read service rate per DIMM. 6 x 6.75 ~= 40.5 GB/s socket
  /// peak (paper Fig. 3).
  GigabytesPerSecond seq_read_gbps = 6.75;
  /// Sequential write service rate per DIMM after ideal write-combining.
  /// 6 x 2.1 ~= 12.6 GB/s socket peak (paper Fig. 7).
  GigabytesPerSecond seq_write_gbps = 2.1;
  /// Random-read service ceiling per DIMM for >= 256 B accesses; the paper
  /// measures random reads at ~2/3 of the sequential peak for large
  /// accesses (Fig. 12a).
  GigabytesPerSecond random_read_gbps = 4.5;
  /// Random-write service ceiling per DIMM for >= 256 B accesses; ~2/3 of
  /// the sequential write peak (Fig. 13a).
  GigabytesPerSecond random_write_gbps = 1.4;
  /// Internal access granularity.
  uint64_t internal_line_bytes = kOptaneLineBytes;
  /// Capacity of the internal write-combining buffer (XPBuffer).
  uint64_t write_buffer_bytes = 16 * kKiB;
  /// Media endurance of one 128 GB DIMM (total petabytes written; Optane
  /// 100-series datasheet order of magnitude). PMEM "wears out over time"
  /// like SSDs (paper §2.1).
  double endurance_petabytes = 292.0;
};

/// Per-DIMM amplification math and wear accounting.
class OptaneDimm {
 public:
  explicit OptaneDimm(const OptaneDimmSpec& spec = OptaneDimmSpec())
      : spec_(spec) {}

  const OptaneDimmSpec& spec() const { return spec_; }

  /// Media bytes read per useful byte for a read of `access_size`.
  /// Sequential streams never amplify (consecutive requests hit the
  /// buffered internal line); random sub-line reads fetch a full 256 B line.
  double ReadAmplification(uint64_t access_size, bool sequential) const;

  /// Media bytes written per useful byte for a write of `access_size`,
  /// given the fraction [0,1] of sub-line writes that the write-combining
  /// buffer managed to merge into full internal lines. Uncombined sub-line
  /// writes pay a read-modify-write of the full line (counted as 2x line
  /// traffic: one read + one write).
  double WriteAmplification(uint64_t access_size,
                            double combine_fraction) const;

  /// Years until this DIMM's endurance budget is exhausted at a sustained
  /// media write rate (after amplification). Returns +inf for rate 0.
  double LifetimeYears(GigabytesPerSecond media_write_gbps) const;

 private:
  OptaneDimmSpec spec_;
};

}  // namespace pmemolap
