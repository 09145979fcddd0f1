// WorkloadRunner — convenience layer that assembles WorkloadSpecs for the
// paper's experiment families and evaluates them on a MemSystemModel.
//
// Each method corresponds to one experimental axis of the paper; the bench
// binaries in bench/ are thin loops over these methods. Every class they
// evaluate comes from MakeClass, which describes the experiment point as a
// TrafficRecord and translates it with ToAccessClass (core/profile.h), the
// same translation the engine's timer prices query traffic with.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "memsys/mem_system.h"
#include "memsys/workload.h"
#include "topo/pinning.h"

namespace pmemolap {

/// The five cross-socket configurations of paper Figs. 6 and 10.
enum class MultiSocketConfig {
  kOneNear,        ///< one socket reads/writes its near memory
  kOneFar,         ///< one socket accesses the other socket's memory
  kTwoNear,        ///< both sockets access their own near memory
  kTwoFar,         ///< both sockets access each other's memory
  kNearFarShared,  ///< both sockets access the SAME memory (one near, one far)
};

const char* MultiSocketConfigName(MultiSocketConfig config);

/// Options shared by the single-class experiment helpers.
struct RunOptions {
  PinningPolicy pinning = PinningPolicy::kNumaRegion;
  int data_socket = 0;
  /// Socket the threads are pinned to; -1 means the data socket (near
  /// access). Set to the other socket for far-access experiments (Fig. 5).
  int thread_socket = -1;
  uint64_t region_bytes = 70ULL * kGiB;
  /// 1 = first run (cold far directory); >= 2 = warmed.
  int run_index = 1;
  /// Store instruction for write workloads.
  WriteInstruction instruction = WriteInstruction::kNtStore;
  bool l2_prefetcher_enabled = true;
  bool devdax = true;
};

class WorkloadRunner {
 public:
  /// The runner evaluates statelessly (EvaluateOnce); the caller's
  /// run_index controls directory warmth so sweeps are order-independent.
  explicit WorkloadRunner(const MemSystemModel* model) : model_(model) {}

  /// Builds the single AccessClass for a homogeneous experiment point:
  /// ToAccessClass of the point's record (worker socket =
  /// `options.thread_socket`) with `options`' run_index and instruction.
  /// Fewer than one thread is InvalidArgument.
  Result<AccessClass> MakeClass(OpType op, Pattern pattern, Media media,
                                uint64_t access_size, int threads,
                                const RunOptions& options) const;

  /// Bandwidth of one homogeneous class (Figs. 3, 4, 5, 7, 8, 9, 12, 13).
  Result<GigabytesPerSecond> Bandwidth(OpType op, Pattern pattern,
                                       Media media, uint64_t access_size,
                                       int threads,
                                       const RunOptions& options) const;

  /// Full result (with diagnostics) of one homogeneous class.
  Result<BandwidthResult> Run(OpType op, Pattern pattern, Media media,
                              uint64_t access_size, int threads,
                              const RunOptions& options) const;

  /// Accumulated bandwidth of the multi-socket configurations of Figs. 6
  /// and 10: `threads_per_socket` threads on each participating socket,
  /// individual sequential access of `access_size`.
  Result<BandwidthResult> MultiSocket(OpType op, Media media,
                                      MultiSocketConfig config,
                                      int threads_per_socket,
                                      uint64_t access_size,
                                      int run_index = 2) const;

  /// The mixed read/write workload of Fig. 11: x writers and y readers on
  /// one socket, disjoint regions on the same DIMMs, 4 KB individual.
  Result<BandwidthResult> Mixed(int write_threads, int read_threads,
                                Media media = Media::kPmem,
                                uint64_t access_size = 4 * kKiB) const;

  const MemSystemModel& model() const { return *model_; }

 private:
  const MemSystemModel* model_;
};

}  // namespace pmemolap
