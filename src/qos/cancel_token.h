// CancelToken — cooperative cancellation for queries in flight.
//
// The token is armed with a wall-clock budget, a modeled-platform-time
// deadline, or both, then checked by the executor *between morsels*
// (WorkStealingPool::RunControl::cancel) — never mid-kernel, so a
// cancelled query leaves no torn per-worker state. The first expired
// limit latches a terminal kDeadlineExceeded Status that every later
// Check() returns; remaining morsels drain unexecuted and are reported as
// dropped in the query's partial-progress stats.
//
// This layer reads the host clock by design (wall deadlines are a
// wall-clock concept), so src/qos/ is exempt from the lint determinism
// rule the model layers obey; modeled deadlines stay deterministic.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>

#include "common/status.h"
#include "qos/query_options.h"

namespace pmemolap::qos {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms the wall deadline `budget_seconds` from now (0 = already
  /// expired at the first Check).
  void ArmWall(double budget_seconds);

  /// Arms the modeled deadline: expires when `clock()` (modeled platform
  /// seconds, e.g. FaultInjector::now) reaches `deadline_seconds`. A null
  /// clock leaves the token unarmed.
  void ArmModeled(double deadline_seconds, std::function<double()> clock);

  /// The cancellation point: OK while the query may continue, else the
  /// latched terminal status. Cheap; safe to call concurrently from pool
  /// workers.
  Status Check();

  /// True once a terminal status has latched.
  bool cancelled() const;

 private:
  mutable std::mutex mutex_;
  Status status_;  // OK until a limit expires

  bool wall_armed_ = false;
  std::chrono::steady_clock::time_point wall_deadline_;

  bool modeled_armed_ = false;
  double modeled_deadline_seconds_ = 0.0;
  std::function<double()> modeled_clock_;
};

/// Arms `token` from a query's options: the wall budget (measured from
/// now) and the modeled deadline (against options.modeled_clock, falling
/// back to `default_modeled_clock` — typically the engine's injector
/// clock).
void ArmFromOptions(CancelToken* token, const QueryOptions& options,
                    std::function<double()> default_modeled_clock = nullptr);

}  // namespace pmemolap::qos
