// Per-thread issue-rate model: how much bandwidth one core can generate
// before any downstream (device / interconnect) limit applies.
//
// Calibration anchors from the paper:
//  - 1 thread sequential PMEM read ~2.6 GB/s; 16-18 threads saturate the
//    ~40 GB/s socket (Fig. 3); 8 threads reach ~85% of peak.
//  - 4 threads saturate the ~12.6 GB/s PMEM write peak => ~3.4 GB/s/thread
//    (Fig. 7).
//  - Far accesses ride the higher-latency UPI: far writes need >= 6 threads
//    to reach their ~7 GB/s ceiling (§4.4); cold far reads peak at 4
//    threads (§3.4).
//  - Random access is latency-bound per thread and profits from
//    hyperthreads (§5.2), unlike sequential reads.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "memsys/workload.h"
#include "topo/topology.h"

namespace pmemolap {

struct IssueSpec {
  // Sequential, near. (8 PMEM read threads reach ~85% of the 40 GB/s
  // socket peak => ~4.4 GB/s per thread; 4 write threads saturate
  // 12.6 GB/s => ~3.4 GB/s per thread.)
  GigabytesPerSecond pmem_seq_read = 4.4;
  GigabytesPerSecond pmem_seq_write = 3.4;
  GigabytesPerSecond dram_seq_read = 11.5;
  GigabytesPerSecond dram_seq_write = 10.0;
  // Sequential, far (higher latency per blocking operation).
  GigabytesPerSecond pmem_far_seq_read = 2.2;
  GigabytesPerSecond pmem_far_seq_write = 1.2;
  GigabytesPerSecond dram_far_seq_read = 8.0;
  GigabytesPerSecond dram_far_seq_write = 4.0;
  // Random access is latency-bound per thread: ~300 ns for a 256 B Optane
  // line (=> 0.85 GB/s), ~105 ns for DRAM (=> 2.4 GB/s). Larger accesses
  // amortize the latency (see random_size_boost_exponent).
  GigabytesPerSecond pmem_rand_read = 0.85;
  GigabytesPerSecond pmem_rand_write = 1.6;
  GigabytesPerSecond dram_rand_read = 2.4;
  GigabytesPerSecond dram_rand_write = 2.5;
  /// Per-thread random rate scales with (access_size / 256)^exponent,
  /// clamped to [1, 3]: a 4 KB random read is ~2x the 256 B rate.
  double random_size_boost_exponent = 0.25;
  /// Issue contribution of a hyperthread sibling relative to a physical
  /// thread for sequential access (shares execution ports and L2).
  double ht_seq_contribution = 0.35;
  /// ... and for random access, where latency hiding makes HT genuinely
  /// useful (paper: "hyperthreading improves the PMEM bandwidth" §5.2).
  double ht_rand_contribution = 0.70;
  /// Tiny issue rates below 64 B alignment are not modeled; accesses are
  /// clamped to one cache line.
  GigabytesPerSecond min_rate = 0.05;
};

class IssueModel {
 public:
  explicit IssueModel(const IssueSpec& spec = IssueSpec()) : spec_(spec) {}

  const IssueSpec& spec() const { return spec_; }

  /// Per-thread issue rate for the given operation and access size.
  GigabytesPerSecond PerThread(OpType op, Pattern pattern, Media media,
                               bool near_data, uint64_t access_size) const;

 private:
  IssueSpec spec_;
};

}  // namespace pmemolap
