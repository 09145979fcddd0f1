// MemSystemModel — the composed memory-subsystem performance model.
//
// Maps a WorkloadSpec (one or more AccessClasses evaluated jointly) to a
// BandwidthResult. The evaluation pipeline per class:
//
//   1. Issue bound     — what the class's threads can generate (IssueModel),
//                        given locality and hyperthread placement.
//   2. Device bound    — what the target DIMM set can serve: DIMM
//                        parallelism from the interleave map, Optane
//                        amplification, write combining / stream
//                        interleaving, random-access efficiency, DRAM
//                        channel model, SSD rates.
//   3. Modifier stack  — L2 prefetcher effects, queue contention,
//                        migration churn (unpinned threads), shared-region
//                        interference, cold coherence directory, fsdax.
//   4. Joint resolution— classes sharing a device pool split a (possibly
//                        mix-shrunken) occupancy budget; far classes share
//                        per-direction UPI payload capacity.
//
// All constants live in the per-component spec structs so ablation benches
// and tests can perturb one mechanism at a time.
#pragma once

#include <vector>

#include "device/dram.h"
#include "device/optane_dimm.h"
#include "device/ssd.h"
#include "device/write_combining.h"
#include "memsys/issue_model.h"
#include "memsys/prefetcher.h"
#include "memsys/queue_model.h"
#include "memsys/upi.h"
#include "memsys/workload.h"
#include "topo/interleave.h"
#include "topo/topology.h"

namespace pmemolap {

/// All tunables of the composed model.
struct MemSystemConfig {
  SystemTopology topology = SystemTopology::PaperServer();
  OptaneDimmSpec optane;
  DramSpec dram;
  WriteCombiningSpec write_combining;
  PrefetcherSpec prefetcher;
  UpiSpec upi;
  CoherenceSpec coherence;
  QueueSpec queue;
  IssueSpec issue;

  /// Extra in-flight window the WPQs contribute to a grouped write
  /// stream's DIMM spread (posted writes are buffered and reordered).
  uint64_t wpq_window_bytes = 16 * 1024;
  /// Random-read efficiency at exactly 256 B relative to the random peak
  /// (ramps to 1.0 at >= 4 KB).
  double pmem_random_small_fraction = 0.68;
  /// Far sequential-write ceiling (ntstore RMW over UPI, §4.4).
  GigabytesPerSecond pmem_far_write_ceiling = 7.0;
  /// Decline per thread beyond 8 for far writes.
  double far_write_excess_penalty = 0.015;
  /// Residual factor for the far class itself when its region is also
  /// accessed from the near socket (DRAM keeps most of its UPI-bound rate).
  double far_shared_residual_dram = 0.90;
  /// Bandwidth multiplier under fsdax (page-fault overhead, §2.3).
  double fsdax_factor = 0.93;
  /// Cached stores (clwb/clflushopt) pay a read-for-ownership per line:
  /// the media sees extra read traffic worth this fraction of the writes.
  double clwb_rfo_factor = 0.62;
  /// clflushopt additionally evicts the line (no write-back merging).
  double clflushopt_factor = 0.90;
  /// Cached sub-line stores merge in the L1/L2 before the write-back:
  /// combining succeeds regardless of thread interleaving.
  double cached_combine_fraction = 0.95;

  // --- Platform degradation (fault layer) ----------------------------------
  /// Per-socket multiplier on PMEM DIMM service rates, injected by the
  /// fault layer to model thermal throttling (Optane DIMMs throttle their
  /// media rates when hot). Empty (the default) means every socket is
  /// healthy; missing trailing sockets default to 1.0.
  std::vector<double> pmem_service_factor;
  /// Multiplier on per-direction UPI payload capacity (degraded link:
  /// fewer active lanes or a reduced transfer rate).
  double upi_capacity_factor = 1.0;
};

/// The composed model. Stateful: far reads warm the coherence directory,
/// reproducing the paper's first-run/second-run distinction. Use
/// EvaluateOnce for pure functions of the spec (run_index decides warmth).
class MemSystemModel {
 public:
  explicit MemSystemModel(MemSystemConfig config = MemSystemConfig());

  const MemSystemConfig& config() const { return config_; }

  /// Evaluates and records far touches in the coherence directory, so a
  /// repeated far workload becomes the paper's "2nd Far".
  BandwidthResult Evaluate(const WorkloadSpec& spec);

  /// Stateless evaluation; a class is warm iff run_index >= 2 or the
  /// directory already knows its (socket, region).
  BandwidthResult EvaluateOnce(const WorkloadSpec& spec) const;

  CoherenceDirectory& directory() { return directory_; }
  const CoherenceDirectory& directory() const { return directory_; }

 private:
  struct ClassEval {
    ClassBandwidth diag;
    GigabytesPerSecond demand = 0.0;  ///< min(issue, device) after modifiers
    GigabytesPerSecond alone_capacity = 0.0;  ///< device pool share basis
    bool uses_pool = false;
    int pool_socket = 0;
    Media pool_media = Media::kPmem;
    bool is_read = true;
    /// Payload this class would push over the UPI direction indexed by the
    /// *source socket of the data flow* (reads: data socket; writes:
    /// accessing socket). -1 when no cross-socket traffic.
    int upi_direction = -1;
  };

  ClassEval EvaluateClass(const AccessClass& klass, const WorkloadSpec& spec,
                          bool shared_region, bool warm) const;

  /// Degradation multiplier on `socket`'s PMEM service rates (1.0 =
  /// healthy).
  double PmemServiceFactor(int socket) const;

  /// Device-side useful-bandwidth capacity for a homogeneous sub-group of
  /// `threads` threads of the class with the given locality.
  GigabytesPerSecond DeviceBound(const AccessClass& klass, int threads,
                                 bool near, bool warm,
                                 ClassBandwidth* diag) const;

  MemSystemConfig config_;
  OptaneDimm optane_;
  DramSocket dram_;
  SsdDevice ssd_;
  WriteCombiningModel write_combining_;
  L2PrefetcherModel prefetcher_;
  UpiLink upi_;
  QueueModel queue_;
  IssueModel issue_;
  InterleaveMap interleave_;
  CoherenceDirectory directory_;
};

}  // namespace pmemolap
