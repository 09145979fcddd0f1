// Query-lifecycle QoS vocabulary: deadlines, priorities and
// partial-progress reporting.
//
// The paper assumes a cooperative tenant; a production engine serving
// concurrent traffic must bound how long a query may run (PMEM bandwidth
// collapse under overload makes unbounded queries toxic to everyone) and
// report how far a cancelled query got. These types are pure data — the
// CancelToken and AdmissionController give them behavior.
#pragma once

#include <cstdint>
#include <functional>

namespace pmemolap::qos {

/// Sentinel for "no deadline" (deadline fields are in seconds and a value
/// of exactly 0 means "already expired", so absence needs a negative).
inline constexpr double kNoDeadline = -1.0;

/// When a query must be done. Both limits may be armed at once; whichever
/// expires first cancels the query (cooperatively, between morsels).
struct Deadline {
  /// Wall-clock budget in seconds from the moment the query is submitted
  /// (kNoDeadline = unbounded; 0 = expired at the first check).
  double wall_budget_seconds = kNoDeadline;
  /// Absolute modeled platform time (FaultInjector::now()) at which the
  /// query expires (kNoDeadline = unbounded). Deterministic: scenarios
  /// that advance platform time replay identical cancellations.
  double modeled_deadline_seconds = kNoDeadline;

  bool unset() const {
    return wall_budget_seconds < 0.0 && modeled_deadline_seconds < 0.0;
  }

  static Deadline Wall(double budget_seconds) {
    Deadline d;
    d.wall_budget_seconds = budget_seconds;
    return d;
  }
  static Deadline Modeled(double deadline_seconds) {
    Deadline d;
    d.modeled_deadline_seconds = deadline_seconds;
    return d;
  }
};

/// Admission classes, highest first. Under backpressure the controller
/// sheds batch first, then normal; high-priority work keeps the deepest
/// queue.
enum class QueryPriority {
  kHigh = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr int kNumPriorities = 3;

const char* QueryPriorityName(QueryPriority priority);

/// How far a query got before finishing or being cancelled — returned
/// alongside kDeadlineExceeded so callers see partial progress instead of
/// a bare error. The unit is the morsel in every executor mode: a serial
/// engine runs the same morsel plan inline.
struct QueryProgress {
  bool admitted = false;        ///< passed the admission gate (or no gate)
  uint64_t units_total = 0;     ///< morsels the plan held
  uint64_t units_executed = 0;  ///< completed before the query ended
  uint64_t units_dropped = 0;   ///< drained unexecuted after cancellation
  uint64_t units_stolen = 0;    ///< executed via work stealing
};

/// Sentinel for "read at the newest committed ingest epoch".
inline constexpr uint64_t kLatestSnapshot = ~uint64_t{0};

/// Sentinel for "scan through the end of the fact table".
inline constexpr uint64_t kScanToEnd = ~uint64_t{0};

/// Per-query lifecycle options accepted by SsbEngine::Execute.
/// Default-constructed options change nothing: no deadline, normal
/// priority.
struct QueryOptions {
  Deadline deadline;
  QueryPriority priority = QueryPriority::kNormal;
  /// Clock for the modeled deadline. Defaults to the engine's fault
  /// injector platform time; required when a modeled deadline is used
  /// without a fault domain (a modeled deadline with no clock is ignored).
  std::function<double()> modeled_clock;
  /// Optional out-param: filled with partial-progress stats whether the
  /// query completes, sheds or expires. Must outlive the Execute call.
  QueryProgress* progress = nullptr;
  /// Durable-mode snapshot pin: the committed ingest epoch this query
  /// reads at. kLatestSnapshot resolves once at the start of Execute, so
  /// a query's view never advances mid-run while ingest keeps committing.
  /// Ignored outside durable mode.
  uint64_t snapshot_epoch = kLatestSnapshot;
  /// Fact-scan window: the query scans only lineorder tuples in
  /// [scan_begin, scan_end) — the vehicle for skewed (Zipf-segmented)
  /// larger-than-memory workloads, where each query hits one segment of
  /// the table and the tiering layer learns which segments are hot.
  /// Defaults scan everything; windows compose with durable snapshots
  /// (both clamp the same ranges). scan_begin > scan_end is rejected with
  /// kInvalidArgument before admission.
  uint64_t scan_begin = 0;
  uint64_t scan_end = kScanToEnd;
};

}  // namespace pmemolap::qos
