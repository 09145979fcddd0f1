// Thread-to-core assignment policies (paper Sections 3.3 and 4.3).
//
// The paper evaluates three strategies:
//   None        — the OS scheduler places threads freely across all sockets;
//                 threads migrate and half of them land far from the data.
//   NumaRegion  — threads are bound to the NUMA region (socket) holding the
//                 data, but the scheduler still juggles them across that
//                 region's cores (overhead once threads > physical cores).
//   Cores       — each thread is bound to one specific core; physical cores
//                 are filled before hyperthread siblings.
#pragma once

#include <vector>

#include "common/status.h"
#include "topo/topology.h"

namespace pmemolap {

enum class PinningPolicy {
  kNone,
  kNumaRegion,
  kCores,
};

const char* PinningPolicyName(PinningPolicy policy);

/// Where one worker thread ended up and how stable that placement is.
struct ThreadSlot {
  int socket = 0;
  int numa_node = 0;
  int physical_core = 0;
  /// True if this thread shares its physical core with another worker
  /// (placed on the hyperthread sibling).
  bool on_hyperthread = false;
  /// True if the thread runs on the socket holding the accessed data.
  bool near_data = true;
  /// Expected scheduler migrations per unit work; 0 for pinned threads.
  /// Nonzero migration churns the cross-socket coherence directory.
  double migration_rate = 0.0;
};

/// The resolved placement of a set of worker threads.
struct ThreadPlacement {
  PinningPolicy policy = PinningPolicy::kCores;
  int data_socket = 0;
  std::vector<ThreadSlot> slots;
  /// Threads per available logical CPU of the eligible core set; > 1 means
  /// the scheduler time-slices.
  double oversubscription = 0.0;

  int threads() const { return static_cast<int>(slots.size()); }
  int CountNear() const;
  /// Mean migration rate across threads.
  double MeanMigrationRate() const;
};

/// Resolves (thread count, policy, data socket) into per-thread slots for a
/// given topology.
class ThreadPlacer {
 public:
  explicit ThreadPlacer(const SystemTopology& topology)
      : topology_(topology) {}

  /// Places `threads` workers that access data on `data_socket`.
  ///
  /// kCores/kNumaRegion place onto `data_socket`'s cores (physical first,
  /// then hyperthreads, wrapping if oversubscribed). kNone spreads threads
  /// round-robin over all sockets — the paper observed the default scheduler
  /// giving every socket a share, leaving ~half the threads far.
  Result<ThreadPlacement> Place(int threads, PinningPolicy policy,
                                int data_socket) const;

 private:
  const SystemTopology& topology_;
};

}  // namespace pmemolap
