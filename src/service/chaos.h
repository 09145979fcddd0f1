// ChaosSchedule — seeded mid-traffic fault campaigns for the service.
//
// A schedule composes the existing failure machinery into a deterministic
// timeline of chaos the QueryService replays against live client traffic:
//
//   - rolling per-socket DIMM throttle storms (FaultSpec throttle
//     windows, evaluated by the FaultInjector as modeled time advances),
//   - standing media poison + UPI degradation, which under traffic drives
//     the breaker trip -> quarantine -> half-open recovery cycle,
//   - crash points (CrashInjector boundaries armed mid-traffic, fired by
//     the next ingest) followed by Recover() while clients wait,
//   - ingest bursts, the write-knee pressure the governor's write clamps
//     exist for.
//
// Everything throttle/poison-shaped must exist in the FaultSpec *before*
// the injector is constructed (specs are immutable), so the schedule is
// generated first and handed to the campaign as ToFaultSpec(); the
// dynamic events (crashes, bursts) are consumed by the service's event
// loop. Same seed => byte-identical schedule (Describe() is the witness
// string the determinism scorecard compares).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_spec.h"

namespace pmemolap::service {

enum class ChaosKind {
  /// A throttle window opens (informational: the window itself lives in
  /// the FaultSpec; the event marks its start for recovery-SLO tracking).
  kThrottleStart,
  /// A throttle window closes — a fault-clear edge the SLO scorecard
  /// measures p99 recovery from.
  kThrottleEnd,
  /// Arm the crash injector: the next ingest dies mid-epoch, admission
  /// parks, Recover() verifies the committed epochs while clients wait.
  kCrash,
  /// Append `rows` fact rows as one ingest epoch (write-knee pressure
  /// and the vehicle that fires armed crashes).
  kIngestBurst,
};

const char* ChaosKindName(ChaosKind kind);

struct ChaosEvent {
  double at_seconds = 0.0;
  ChaosKind kind = ChaosKind::kIngestBurst;
  int socket = 0;            ///< throttle events: the stormed socket
  double service_factor = 1.0;  ///< throttle events: DIMM service factor
  uint64_t rows = 0;         ///< ingest bursts: rows appended
};

struct ChaosConfig {
  uint64_t seed = 0xC4405;
  /// Modeled horizon the schedule covers; all events land inside it.
  double horizon_seconds = 60.0;
  /// Rolling per-socket throttle storms (0 = none).
  int throttle_storms = 0;
  double storm_min_seconds = 4.0;
  double storm_max_seconds = 10.0;
  /// Storm severity band (DIMM service factor drawn uniformly inside).
  double storm_factor_lo = 0.2;
  double storm_factor_hi = 0.6;
  /// Crash + Recover() cycles fired mid-traffic (0 = none). Each crash is
  /// scheduled strictly before an ingest burst so the armed boundary
  /// actually fires.
  int crashes = 0;
  /// Ingest bursts across the horizon (0 = none; must be > crashes).
  int ingest_bursts = 0;
  uint64_t burst_rows = 10'000;
  /// Standing media faults for breaker pressure (0 = clean media).
  double poison_lines_per_mib = 0.0;
  double transient_fraction = 0.5;
  double upi_capacity_factor = 1.0;
};

class ChaosSchedule {
 public:
  /// Deterministically realizes `config` into a sorted event timeline.
  /// Storms pick their socket among the platform's `sockets` (the
  /// service passes its model topology's count).
  static ChaosSchedule Generate(const ChaosConfig& config, int sockets);

  const ChaosConfig& config() const { return config_; }
  /// Events sorted by (at_seconds, insertion order); stable per seed.
  const std::vector<ChaosEvent>& events() const { return events_; }

  /// The static half of the campaign: throttle windows + standing poison
  /// + UPI degradation as an injector-ready spec (seeded from the chaos
  /// seed, so poison placement replays too).
  FaultSpec ToFaultSpec() const;

  /// Modeled times at which a fault clears (throttle ends; crash
  /// recovery completions are appended by the service at runtime) — the
  /// edges the p99-recovery SLO is measured from.
  std::vector<double> FaultClearEdges() const;

  /// Canonical one-line-per-event rendering; byte-identical across runs
  /// with the same seed (the determinism scorecard compares it).
  std::string Describe() const;

 private:
  ChaosConfig config_;
  std::vector<ChaosEvent> events_;
};

}  // namespace pmemolap::service
