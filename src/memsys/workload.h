// Workload descriptions consumed by the memory-system model.
//
// A WorkloadSpec is a set of AccessClasses evaluated *jointly*: classes
// sharing a device pool (same socket and media) interfere, far classes share
// the UPI. Every microbenchmark in the paper is expressible as one or more
// AccessClasses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "topo/pinning.h"
#include "topo/topology.h"

namespace pmemolap {

enum class OpType { kRead, kWrite };

const char* OpTypeName(OpType op);

/// Spatial access pattern of one class.
enum class Pattern {
  /// One global sequential stream, interleaved across all threads of the
  /// class ("Grouped Access" in the paper).
  kSequentialGrouped,
  /// Each thread owns a disjoint region and streams through it
  /// ("Individual Access").
  kSequentialIndividual,
  /// Uniform random offsets within region_bytes.
  kRandom,
};

const char* PatternName(Pattern pattern);

/// How stores reach PMEM (the paper's related work notes "huge performance
/// gaps depending on ... which instruction is used").
enum class WriteInstruction {
  /// Non-temporal store + sfence: bypasses the cache; the best choice at
  /// >= 256 B (the paper's benchmarks use this).
  kNtStore,
  /// Regular store + clwb + sfence: writes travel through the cache
  /// (read-for-ownership per line) and are written back without eviction.
  /// Wins for sub-line writes, loses bandwidth to RFO traffic above.
  kClwb,
  /// Store + clflushopt + sfence: like clwb but evicts the line —
  /// subsequent reads miss.
  kClflushOpt,
};

const char* WriteInstructionName(WriteInstruction instruction);

/// One homogeneous group of threads performing one kind of access against
/// one memory region.
struct AccessClass {
  OpType op = OpType::kRead;
  Pattern pattern = Pattern::kSequentialIndividual;
  Media media = Media::kPmem;
  /// Consecutive bytes per operation.
  uint64_t access_size = 4 * kKiB;
  /// Resolved thread placement (see ThreadPlacer).
  ThreadPlacement placement;
  /// Socket whose DIMMs hold the accessed region.
  int data_socket = 0;
  /// Size of the accessed region; drives DRAM channel spread and random
  /// locality. 0 means "large" (the 70 GB of the paper's benchmarks).
  uint64_t region_bytes = 70 * kGiB;
  /// Identifier of the region, used to detect two classes touching the
  /// SAME bytes from different sockets (paper's config (v)).
  int region_id = 0;
  /// Store instruction for write classes (ignored for reads).
  WriteInstruction instruction = WriteInstruction::kNtStore;
  /// 1 for a first run; >= 2 once the cross-socket coherence directory has
  /// been warmed for this (socket, region) pair (paper Fig. 5 "2nd Far").
  int run_index = 1;
  /// Free-form label for diagnostics.
  std::string label;
};

/// Per-class model outcome with the diagnostic breakdown (the model's
/// stand-in for the paper's VTune evidence).
struct ClassBandwidth {
  GigabytesPerSecond gbps = 0.0;
  GigabytesPerSecond issue_bound_gbps = 0.0;
  GigabytesPerSecond device_bound_gbps = 0.0;
  double concurrent_dimms = 0.0;
  double prefetcher_factor = 1.0;
  double combine_fraction = 1.0;
  double buffer_efficiency = 1.0;
  double read_amplification = 1.0;
  double write_amplification = 1.0;
  /// Data bytes/s this class moves across the UPI (0 for near access).
  GigabytesPerSecond upi_data_gbps = 0.0;
  /// Media bytes/s actually written (useful x amplification) — the wear
  /// rate; 0 for read classes. Feed to OptaneDimm::LifetimeYears.
  GigabytesPerSecond media_write_gbps = 0.0;
  std::string label;
};

/// Joint result for a WorkloadSpec.
struct BandwidthResult {
  std::vector<ClassBandwidth> per_class;
  GigabytesPerSecond total_gbps = 0.0;
  /// Peak utilization over both UPI directions, in [0,1], including the
  /// metadata share.
  double upi_utilization = 0.0;
};

/// A full workload: classes plus system-wide switches.
struct WorkloadSpec {
  std::vector<AccessClass> classes;
  /// The L2 hardware prefetcher BIOS switch (paper §3.1/§3.2 side
  /// experiments).
  bool l2_prefetcher_enabled = true;
  /// App Direct access mode: devdax (true) avoids the fsdax page-fault
  /// penalty of 5-10% (paper §2.3).
  bool devdax = true;
};

}  // namespace pmemolap
