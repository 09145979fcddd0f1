// Fault-domain circuit breakers — stop paying per-access recovery cost
// for a domain that keeps failing.
//
// The recovery layer (GuardedTable / GuardedDimension) heals individual
// poisoned reads: bounded retry, scrub, failover. That is the right
// response to *isolated* faults, but a dying DIMM or a throttled socket
// fails on every touch, and retry-every-touch multiplies the modeled
// backoff and failover cost by the access count. A breaker watches the
// escalation rate per fault domain (one domain per socket): after
// `trip_threshold` escalations-to-scrub inside `window_seconds` of
// modeled platform time it trips open and quarantines the domain —
// readers bypass the local probe/retry path entirely and go straight to
// healthy replicas or the scrubber. After `cooldown_seconds` the breaker
// half-opens and lets one probe access through the normal path; a healthy
// probe restores the domain, a failed one reopens it.
//
// Clocked on FaultInjector::now() (modeled platform time), so breaker
// trajectories are deterministic and replayable like everything else in
// the fault layer.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "fault/fault_injector.h"

namespace pmemolap {

enum class BreakerState {
  kClosed,    ///< healthy: accesses take the normal recovery path
  kOpen,      ///< quarantined: accesses bypass the domain
  kHalfOpen,  ///< cooling down: probe accesses test the domain
};

/// What the breaker tells an access to do.
enum class BreakerDecision {
  kNormal,  ///< take the usual retry/failover path
  kBypass,  ///< domain quarantined: skip local probe, use replicas/scrub
  kProbe,   ///< half-open: take the normal path and report the outcome
};

struct BreakerOptions {
  /// Escalations-to-scrub (or failovers) within the window that trip the
  /// breaker.
  int trip_threshold = 3;
  /// Sliding escalation-counting window, modeled seconds.
  double window_seconds = 1.0;
  /// Open dwell time before the breaker half-opens for a probe.
  double cooldown_seconds = 5.0;
};

/// Evidence of breaker activity; the overload bench compares these
/// against the raw retry/failover counters with breakers disabled.
struct BreakerCounters {
  uint64_t escalations = 0;  ///< recovery escalations reported
  uint64_t trips = 0;        ///< Closed -> Open transitions
  uint64_t bypasses = 0;     ///< accesses served around the quarantine
  uint64_t probes = 0;       ///< half-open accesses let through
  uint64_t restores = 0;     ///< HalfOpen -> Closed (probe healthy)
  uint64_t reopens = 0;      ///< HalfOpen -> Open (probe failed)
};

/// One domain's breaker state machine. Not internally synchronized —
/// BreakerBoard serializes access through its own mutex.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions options = BreakerOptions())
      : options_(options) {}

  /// Routes one access at modeled time `now`. Open breakers whose
  /// cooldown elapsed transition to half-open here (and return kProbe).
  BreakerDecision Decide(double now);

  /// Reports a recovery escalation (retry exhaustion on this domain's
  /// stripe, or a failover off this domain's replica). Trips the breaker
  /// when the windowed count reaches the threshold.
  void RecordEscalation(double now);

  /// Reports the outcome of a kProbe access: healthy closes the breaker,
  /// unhealthy reopens it for another cooldown.
  void RecordProbe(bool healthy, double now);

  BreakerState state() const { return state_; }
  const BreakerCounters& counters() const { return counters_; }

 private:
  void PruneWindow(double now);

  const BreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  double opened_at_ = 0.0;
  std::deque<double> escalation_times_;
  BreakerCounters counters_;
};

/// Per-socket breakers for one modeled platform, clocked by its
/// injector. Thread-safe (one board mutex; breaker decisions are cheap).
class BreakerBoard {
 public:
  /// One breaker per socket in [0, sockets). The injector provides the
  /// modeled clock and must outlive the board.
  BreakerBoard(const FaultInjector* injector, int sockets,
               BreakerOptions options = BreakerOptions());

  BreakerBoard(const BreakerBoard&) = delete;
  BreakerBoard& operator=(const BreakerBoard&) = delete;

  int num_domains() const { return static_cast<int>(breakers_.size()); }

  /// Routes one access to `socket`'s domain (out-of-range sockets wrap,
  /// mirroring replica indexing).
  BreakerDecision Decide(int socket);

  void RecordEscalation(int socket);
  void RecordProbe(int socket, bool healthy);

  /// True while `socket`'s breaker is open (decisions bypass it).
  bool Quarantined(int socket) const;
  BreakerState state(int socket) const;

  /// healthy[s] == !Quarantined(s) — the executor's quarantine re-plan
  /// input (ReassignQuarantinedQueues).
  std::vector<bool> HealthySockets() const;

  /// Sum over all domains.
  BreakerCounters counters() const;
  BreakerCounters domain_counters(int socket) const;

 private:
  size_t DomainOf(int socket) const {
    const int n = num_domains();
    return static_cast<size_t>(((socket % n) + n) % n);
  }

  const FaultInjector* injector_;
  mutable std::mutex mutex_;
  std::vector<CircuitBreaker> breakers_;
};

}  // namespace pmemolap
