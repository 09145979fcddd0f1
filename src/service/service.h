// QueryService — an always-on multi-tenant query service over SsbEngine,
// run as a deterministic discrete-event simulation on modeled time.
//
// The service owns the whole serving stack: a Workload of N simulated
// client streams (closed- or open-loop arrivals, Zipf query mixes,
// per-client priorities/deadlines/shed-retry budgets), the real
// qos::AdmissionController in front of a bounded slot pool, the
// BandwidthGovernor, the fault/durability machinery a ChaosSchedule
// composes into mid-traffic campaigns, a three-tier graceful-degradation
// policy driven by the platform-health estimate, and a ScaleStore-style
// ContinuousProfiler emitting per-modeled-second counters as CSV.
//
// Execution model. Client traffic is bookkeeping on an event queue keyed
// by (modeled time, sequence): submissions queue as request ids in the
// controller's own class FIFOs through its event entry (Enqueue /
// GrantNext / WithdrawExpired — the same queues, aging rule and pause
// that blocking Admit uses, with nothing blocked), grants schedule a
// completion at grant + modeled query seconds, deadlines cut runs short
// on the modeled timeline. Actual host Execute calls are memoized per
// (engine, query, snapshot epoch, actuator state): a 100k-client
// campaign performs dozens of real executions, not 100k — every cached
// result is validated bit-identical against ssb::ReferenceExecutor (for
// durable campaigns, against a reference over the committed row prefix
// of the pinned epoch) the one time it is produced, so "zero incorrect
// results" is checked at full client scale for the cost of the distinct
// execution shapes.
//
// Degradation ladder (see degradation.h): tier 1 sheds batch at the
// edge; tier 2 routes non-high grants to a degraded plan (a second
// prepared engine with fewer modeled workers — same bit-identical
// answers, cheaper on a throttled platform); tier 3 stops granting and
// drains (crash-recovery windows force it immediately). Crashes fire at
// real persistence boundaries (CrashInjector armed mid-traffic, tripped
// by the next ingest burst); Recover() verifies the committed epochs and
// the admission gate stays paused for the recovery's modeled seconds
// while waiters hold.
//
// Everything is seeded and priced in modeled seconds — no wall clock, no
// host entropy, no threads of its own (lint: service is a deterministic
// layer; the profiler is event-driven ticks, the deterministic analog of
// ScaleStore's profiling thread). Two runs with the same config produce
// byte-identical reports; ServiceReport::Digest() is the witness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pmem_space.h"
#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "engine/engine.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_domain.h"
#include "fault/fault_injector.h"
#include "governor/governor.h"
#include "memsys/mem_system.h"
#include "qos/admission.h"
#include "service/chaos.h"
#include "service/degradation.h"
#include "service/profiler.h"
#include "service/workload.h"
#include "ssb/dbgen.h"
#include "ssb/reference.h"

namespace pmemolap::service {

/// What a campaign varies: the traffic, the chaos, the gate's slot pool
/// and queue bounds, and the load shaping. The serving stack itself (the
/// governor, both plans' worker counts, the pricing scale, the tick
/// period) is fixed in service.cc.
struct ServiceConfig {
  WorkloadConfig workload;
  /// Chaos campaign; chaos.horizon_seconds is the campaign horizon even
  /// when no chaos is injected. Poisoned-media (guarded fault mode) and
  /// durable-ingest (crashes / ingest bursts) campaigns are mutually
  /// exclusive, mirroring EngineConfig::fault vs ::durable.
  ChaosConfig chaos;
  qos::AdmissionLimits admission;
  /// Extra multiplier from a query's modeled seconds to service
  /// occupancy on the timeline (load shaping without re-pricing).
  double service_time_scale = 1.0;
  /// Durable campaigns: fraction of the fact table ingested (in
  /// initial_ingest_epochs epochs) before traffic starts; chaos ingest
  /// bursts append from the remainder in prefix order.
  double initial_ingest_fraction = 0.6;
  int initial_ingest_epochs = 4;
};

enum class RequestOutcome : uint8_t {
  kPending = 0,   ///< still queued/running when the horizon closed
  kCompleted,     ///< result delivered (validated bit-identical)
  kShed,          ///< refused and out of shed-retry budget
  kExpired,       ///< deadline fired (queued or mid-run)
  kFailed,        ///< execution error (never expected; scorecard checks 0)
};

/// One logical client request, state machine and log record in one.
struct RequestRecord {
  uint64_t client = 0;
  ssb::QueryId query{};
  qos::QueryPriority priority = qos::QueryPriority::kNormal;
  double submit_seconds = 0.0;       ///< first submission
  double grant_seconds = -1.0;
  double complete_seconds = -1.0;
  double deadline_seconds = -1.0;    ///< absolute modeled; < 0 = none
  /// Uncut completion time; > complete_seconds means the deadline cut
  /// the run short.
  double planned_finish_seconds = -1.0;
  int sheds_left = 0;
  RequestOutcome outcome = RequestOutcome::kPending;
  bool degraded_plan = false;
  uint64_t snapshot_epoch = 0;

  double Latency() const { return complete_seconds - submit_seconds; }
};

struct ServiceCounters {
  uint64_t submitted = 0;       ///< submission attempts (incl. retries)
  uint64_t retried = 0;         ///< shed resubmissions
  uint64_t edge_shed = 0;       ///< refused by the degradation tier
  uint64_t queue_shed = 0;      ///< refused: class queue full
  uint64_t gave_up = 0;         ///< requests out of shed-retry budget
  uint64_t granted = 0;
  uint64_t degraded_grants = 0;  ///< served by the brown-out plan
  uint64_t expired_queued = 0;   ///< deadline fired before any grant
  uint64_t expired_running = 0;  ///< deadline cut a running query
  uint64_t completed = 0;
  uint64_t incorrect_results = 0;  ///< reference mismatches (must be 0)
  uint64_t failed_executions = 0;  ///< engine errors (must be 0)
  uint64_t aged_grants = 0;     ///< grants past a queued higher class
                                ///< (the controller's count)
  uint64_t real_executions = 0;  ///< host Execute calls (cache misses)
  uint64_t cache_hits = 0;
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t epoch_regressions = 0;  ///< committed-epoch loss (must be 0)
  uint64_t ingest_epochs = 0;
  uint64_t ingest_rows = 0;
  uint64_t breaker_trips = 0;
};

struct LatencySummary {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Everything a campaign produced; deterministic per config.
struct ServiceReport {
  ServiceCounters counters;
  qos::AdmissionCounters admission;
  LatencySummary latency;  ///< completed requests, client-perceived
  LatencySummary latency_by_priority[qos::kNumPriorities];
  std::string chaos_log;                     ///< ChaosSchedule::Describe
  std::vector<std::string> degradation_log;  ///< tier transitions
  std::string profile_csv;                   ///< ContinuousProfiler CSV
  /// Fault-clear edges: scheduled throttle ends + runtime recovery
  /// completions, ascending.
  std::vector<double> fault_clear_edges;
  std::vector<RequestRecord> requests;

  /// Per fault-clear edge: modeled seconds until the first post-edge
  /// completion back under `slo_seconds` latency (infinity = never).
  std::vector<double> RecoveryReentrySeconds(double slo_seconds) const;

  /// FNV-1a over the canonical rendering of counters, latency summaries,
  /// chaos log, tier transitions and profiler CSV — equal digests mean
  /// byte-identical campaign behavior.
  uint64_t Digest() const;
};

class QueryService {
 public:
  /// `db` and `model` must outlive the service.
  QueryService(const ssb::Database* db, const MemSystemModel* model,
               ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Builds the campaign stack: fault/durable plumbing per the chaos
  /// config, both engine plans, the initial durable ingest.
  Status Prepare();

  /// Runs the campaign to the horizon and returns the report.
  Result<ServiceReport> Run();

  const ServiceConfig& config() const { return config_; }
  const ChaosSchedule& chaos() const { return chaos_; }

 private:
  enum class EventKind : uint8_t {
    kSubmit,        ///< arg = client: draw and submit its next query
    kArrival,       ///< open loop: next global arrival
    kRetry,         ///< arg = request: resubmit after shed backoff
    kComplete,      ///< arg = request: running query reached its end
    kTick,          ///< profiler/degradation tick
    kChaos,         ///< arg = index into chaos_.events()
    kRecoveryDone,  ///< crash recovery's modeled window elapsed
  };

  struct Event {
    double at = 0.0;
    uint64_t seq = 0;  ///< tie-break: FIFO among equal timestamps
    EventKind kind = EventKind::kTick;
    uint64_t arg = 0;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Memoized outcome of one distinct host execution shape.
  struct CachedRun {
    ssb::QueryOutput output;
    double seconds = 0.0;
    bool ok = false;
    StatusCode code = StatusCode::kOk;
  };

  void Schedule(double at, EventKind kind, uint64_t arg);
  double horizon() const { return config_.chaos.horizon_seconds; }
  /// Request `id`'s deadline has passed at now_.
  bool Expired(uint64_t id) const;
  /// Feeds the degradation policy and holds the gate's pause while tier 3
  /// or a recovery window does.
  void ObserveHealth(double estimate);

  void OnSubmitEvent(uint64_t client);
  void OnArrivalEvent();
  void SubmitRequest(uint64_t id);
  void ShedRequest(uint64_t id, bool edge);
  void ExpireQueuedRequest(uint64_t id);
  void GrantRequest(uint64_t id, qos::AdmissionTicket ticket);
  void OnCompleteEvent(uint64_t id);
  void OnTickEvent();
  void OnChaosEvent(uint64_t index);
  void OnRecoveryDone();
  void DoIngest(uint64_t rows);
  void OnCrash(uint64_t lost_rows);
  /// Closed loop: schedules `client`'s next submission after think time.
  void ScheduleClientNext(uint64_t client);

  /// Grants the controller's waiters while it has open slots.
  void PumpGrants();
  /// Withdraws deadline-expired waiters from the controller's queues.
  void PurgeExpiredWaiters();

  double HealthEstimate() const;
  const CachedRun& CachedExecute(const RequestRecord& request,
                                 bool degraded_plan);
  /// Reference output for `query` at committed `epoch` (full db when the
  /// campaign is not durable), lazily computed and cached.
  const ssb::QueryOutput& ReferenceFor(ssb::QueryId query, uint64_t epoch);

  const ssb::Database* db_;
  const MemSystemModel* model_;
  ServiceConfig config_;
  Workload workload_;
  ChaosSchedule chaos_;
  DegradationPolicy policy_;
  ContinuousProfiler profiler_;
  qos::AdmissionController admission_;

  // Fault-campaign plumbing (chaos poison/throttle/UPI).
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<PmemSpace> fault_space_;
  std::unique_ptr<BreakerBoard> breakers_;
  FaultDomain domain_;

  // Durable-campaign plumbing (chaos crashes / ingest bursts).
  std::unique_ptr<PmemSpace> durable_space_;
  std::unique_ptr<CrashInjector> crash_;
  std::unique_ptr<DurableTable> table_;
  /// epoch id -> cumulative committed fact rows (index 0 = 0 rows).
  std::vector<uint64_t> epoch_rows_;
  uint64_t ingested_rows_ = 0;
  uint64_t pending_burst_rows_ = 0;

  std::unique_ptr<governor::BandwidthGovernor> governor_;
  std::unique_ptr<SsbEngine> primary_;
  std::unique_ptr<SsbEngine> degraded_;

  ssb::ReferenceExecutor reference_;
  std::map<std::pair<uint64_t, int>, ssb::QueryOutput> reference_cache_;
  std::map<uint64_t, std::unique_ptr<ssb::Database>> prefix_dbs_;
  std::map<std::string, CachedRun> run_cache_;

  // Event-loop state.
  double now_ = 0.0;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::vector<RequestRecord> requests_;
  std::map<uint64_t, qos::AdmissionTicket> running_;
  bool crashed_window_ = false;
  Status run_error_ = Status::OK();
  ServiceCounters counters_;
  std::vector<double> fault_clear_edges_;
  int tick_index_ = 0;
  uint64_t completed_at_last_tick_ = 0;
  bool prepared_ = false;
};

}  // namespace pmemolap::service
