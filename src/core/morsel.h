// Morsel — the unit of work the work-stealing executor dispatches: a small
// contiguous tuple range (default ~100k tuples) tagged with the socket
// that stores it. Morsel-driven scheduling (Leis et al., "Morsel-Driven
// Parallelism") keeps workers NUMA-local as long as their own socket has
// work and lets idle workers steal across sockets instead of waiting at a
// static range barrier — exactly the elasticity the paper's pinned
// many-worker SSB execution needs when ranges are skewed or a worker is
// slowed down.
#pragma once

#include <cstdint>
#include <vector>

namespace pmemolap {

/// Default morsel granularity in tuples. Small enough that stealing can
/// rebalance tail latency, large enough that queue operations are noise.
inline constexpr uint64_t kDefaultMorselTuples = 100'000;

/// One unit of dispatch: tuples [begin, end) stored on `socket`.
struct Morsel {
  uint64_t begin = 0;
  uint64_t end = 0;
  /// Home socket (= run-queue index). Workers of this socket pop the
  /// morsel near-first; others may steal it.
  int socket = 0;

  uint64_t size() const { return end - begin; }
};

/// A query's full work list, split into per-socket run queues.
struct MorselPlan {
  /// One queue per socket (index = socket id). Queues may be empty.
  std::vector<std::vector<Morsel>> queues;

  uint64_t total_morsels() const {
    uint64_t n = 0;
    for (const auto& q : queues) n += q.size();
    return n;
  }
  uint64_t total_tuples() const {
    uint64_t n = 0;
    for (const auto& q : queues) {
      for (const Morsel& m : q) n += m.size();
    }
    return n;
  }
};

/// Slices [begin, end) into morsels of at most `morsel_tuples` tuples and
/// appends them to `plan`'s queue for `socket` (growing the queue vector
/// as needed). A zero `morsel_tuples` falls back to the default.
void AppendMorsels(uint64_t begin, uint64_t end, int socket,
                   uint64_t morsel_tuples, MorselPlan* plan);

/// Quarantine re-plan: moves every morsel queued on a socket with
/// healthy[socket] == false onto the least-loaded healthy queue, so
/// workers of a quarantined fault domain are not handed its morsels as
/// "near" work. Morsel::socket is preserved — it still names where the
/// data lives (slot mapping and result identity depend on it); only the
/// run-queue placement changes, which the executor treats like a steal.
/// Sockets beyond healthy.size() are considered healthy; when no socket
/// is healthy the plan is left untouched (degraded beats deadlocked).
/// Returns the number of morsels moved.
uint64_t ReassignQuarantinedQueues(MorselPlan* plan,
                                   const std::vector<bool>& healthy);

/// Optane's internal access granularity: the 256 B XPLine. A morsel
/// boundary that splits an XPLine makes BOTH adjacent morsels touch the
/// line, so the device reads it twice (the read amplification
/// device/optane_dimm models for sub-line accesses).
inline constexpr uint64_t kXPLineBytes = 256;

/// AlignMorselPlanTuples at the XPLine quantum of `bytes_per_tuple`: the
/// smallest tuple count whose byte size is a multiple of 256 B. A
/// `bytes_per_tuple` of 0 leaves the plan unchanged.
void AlignMorselPlan(MorselPlan* plan, uint64_t bytes_per_tuple);

/// Governor actuator 2: snaps every interior boundary of a contiguous
/// same-queue morsel run up to the next multiple of `quantum_tuples`,
/// coalescing morsels the snap empties. Run starts/ends are left alone —
/// a partial leading line is read once regardless. Ranges and total
/// tuples are preserved, so kernel results are unchanged; only the split
/// points move. A quantum of 0 or 1 leaves the plan unchanged.
void AlignMorselPlanTuples(MorselPlan* plan, uint64_t quantum_tuples);

/// Interior boundaries of contiguous same-queue runs that do not fall on
/// a multiple of `quantum_tuples` — each one splits an XPLine or a code
/// frame, so both neighboring morsels read it. 0 after
/// AlignMorselPlanTuples with the same quantum.
uint64_t TornBoundaries(const MorselPlan& plan, uint64_t quantum_tuples);

}  // namespace pmemolap
