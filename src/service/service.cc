#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pmemolap::service {

namespace {

constexpr double kEps = 1e-9;
/// Profiler and degradation tick period, modeled seconds.
constexpr double kTickSeconds = 1.0;
/// Primary / degraded (brown-out) plan worker counts. The degraded plan
/// prices with fewer modeled workers: slower, same answers.
constexpr int kPrimaryThreads = 8;
constexpr int kDegradedThreads = 2;
/// Queries are priced at the paper's scale so modeled latencies are in
/// the same regime as the deadlines and SLOs.
constexpr double kProjectToSf = 50.0;

uint64_t Fnv1a(const std::string& data, uint64_t hash) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string RenderCounters(const ServiceCounters& c) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu retried=%llu edge_shed=%llu queue_shed=%llu "
      "gave_up=%llu granted=%llu degraded=%llu expired_queued=%llu "
      "expired_running=%llu completed=%llu incorrect=%llu failed=%llu "
      "aged=%llu real=%llu hits=%llu crashes=%llu recoveries=%llu "
      "epoch_regressions=%llu ingest_epochs=%llu ingest_rows=%llu "
      "breaker_trips=%llu",
      static_cast<unsigned long long>(c.submitted),
      static_cast<unsigned long long>(c.retried),
      static_cast<unsigned long long>(c.edge_shed),
      static_cast<unsigned long long>(c.queue_shed),
      static_cast<unsigned long long>(c.gave_up),
      static_cast<unsigned long long>(c.granted),
      static_cast<unsigned long long>(c.degraded_grants),
      static_cast<unsigned long long>(c.expired_queued),
      static_cast<unsigned long long>(c.expired_running),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.incorrect_results),
      static_cast<unsigned long long>(c.failed_executions),
      static_cast<unsigned long long>(c.aged_grants),
      static_cast<unsigned long long>(c.real_executions),
      static_cast<unsigned long long>(c.cache_hits),
      static_cast<unsigned long long>(c.crashes),
      static_cast<unsigned long long>(c.recoveries),
      static_cast<unsigned long long>(c.epoch_regressions),
      static_cast<unsigned long long>(c.ingest_epochs),
      static_cast<unsigned long long>(c.ingest_rows),
      static_cast<unsigned long long>(c.breaker_trips));
  return buf;
}

std::string RenderLatency(const LatencySummary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f",
                static_cast<unsigned long long>(s.count), s.mean, s.p50,
                s.p95, s.p99, s.max);
  return buf;
}

LatencySummary Summarize(std::vector<double>* latencies) {
  LatencySummary s;
  s.count = latencies->size();
  if (latencies->empty()) return s;
  std::sort(latencies->begin(), latencies->end());
  double sum = 0.0;
  for (double v : *latencies) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  auto at = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(s.count - 1));
    return (*latencies)[idx];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = latencies->back();
  return s;
}

}  // namespace

std::vector<double> ServiceReport::RecoveryReentrySeconds(
    double slo_seconds) const {
  // Completions sorted by completion time, once.
  std::vector<std::pair<double, double>> done;  // (complete, latency)
  for (const RequestRecord& r : requests) {
    if (r.outcome == RequestOutcome::kCompleted) {
      done.emplace_back(r.complete_seconds, r.Latency());
    }
  }
  std::sort(done.begin(), done.end());
  std::vector<double> reentry;
  reentry.reserve(fault_clear_edges.size());
  for (double edge : fault_clear_edges) {
    double found = std::numeric_limits<double>::infinity();
    auto it = std::lower_bound(done.begin(), done.end(),
                               std::make_pair(edge, 0.0));
    for (; it != done.end(); ++it) {
      if (it->second <= slo_seconds) {
        found = it->first - edge;
        break;
      }
    }
    reentry.push_back(found);
  }
  return reentry;
}

uint64_t ServiceReport::Digest() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  h = Fnv1a(RenderCounters(counters), h);
  h = Fnv1a(RenderLatency(latency), h);
  for (const LatencySummary& s : latency_by_priority) {
    h = Fnv1a(RenderLatency(s), h);
  }
  h = Fnv1a(chaos_log, h);
  for (const std::string& line : degradation_log) h = Fnv1a(line, h);
  h = Fnv1a(profile_csv, h);
  char buf[64];
  for (double edge : fault_clear_edges) {
    std::snprintf(buf, sizeof(buf), "edge=%.6f", edge);
    h = Fnv1a(buf, h);
  }
  return h;
}

QueryService::QueryService(const ssb::Database* db,
                           const MemSystemModel* model, ServiceConfig config)
    : db_(db),
      model_(model),
      config_(config),
      workload_(config.workload),
      chaos_(ChaosSchedule::Generate(config.chaos,
                                     model->config().topology.sockets())),
      admission_(config.admission),
      reference_(db) {}

QueryService::~QueryService() = default;

Status QueryService::Prepare() {
  if (prepared_) return Status::OK();
  const ChaosConfig& chaos = config_.chaos;
  const bool poison_mode = chaos.poison_lines_per_mib > 0.0;
  const bool durable_mode = chaos.crashes > 0 || chaos.ingest_bursts > 0;
  if (poison_mode && durable_mode) {
    return Status::InvalidArgument(
        "chaos campaign cannot combine poisoned guarded media with "
        "durable ingest (EngineConfig fault and durable are exclusive)");
  }

  const FaultSpec spec = chaos_.ToFaultSpec();
  if (poison_mode || !spec.throttle_windows.empty() ||
      spec.upi_capacity_factor < 1.0) {
    injector_ = std::make_unique<FaultInjector>(spec);
  }
  if (poison_mode) {
    fault_space_ = std::make_unique<PmemSpace>(model_->config().topology);
    injector_->Arm(fault_space_.get());
    breakers_ = std::make_unique<BreakerBoard>(
        injector_.get(), model_->config().topology.sockets());
    domain_.space = fault_space_.get();
    domain_.injector = injector_.get();
    domain_.breakers = breakers_.get();
  }
  if (durable_mode) {
    durable_space_ = std::make_unique<PmemSpace>(model_->config().topology);
    crash_ = std::make_unique<CrashInjector>(chaos.seed);
    auto table = DurableTable::Create(durable_space_.get(), crash_.get(),
                                      DurableTable::Options());
    if (!table.ok()) return table.status();
    table_ = std::move(table.value());
    epoch_rows_.push_back(0);
  }
  governor_ = std::make_unique<governor::BandwidthGovernor>(model_);

  EngineConfig primary;
  primary.mode = EngineMode::kPmemAware;
  primary.media = Media::kPmem;
  primary.threads = kPrimaryThreads;
  primary.project_to_sf = kProjectToSf;
  primary.governor = governor_.get();
  // Guarded/durable modes scan a row image, so their fact scans are
  // priced as 128 B rows; the columnar layout applies to the plain
  // campaigns only.
  primary.columnar = !poison_mode && !durable_mode;
  if (poison_mode) primary.fault = &domain_;
  if (durable_mode) primary.durable = table_.get();
  // Admission lives at the service edge (the controller's queues hold
  // request ids on the modeled timeline); the engine gates nothing itself.
  primary.admission = nullptr;

  EngineConfig degraded = primary;
  degraded.threads = kDegradedThreads;
  degraded.parallel_execution = false;
  degraded.governor = nullptr;

  primary_ = std::make_unique<SsbEngine>(db_, model_, primary);
  degraded_ = std::make_unique<SsbEngine>(db_, model_, degraded);
  Status st = primary_->Prepare();
  if (!st.ok()) return st;
  st = degraded_->Prepare();
  if (!st.ok()) return st;

  if (durable_mode) {
    // Seed the table with a committed prefix before traffic starts.
    const uint64_t total = db_->lineorder.size();
    const uint64_t seed_rows = static_cast<uint64_t>(
        static_cast<double>(total) *
        std::clamp(config_.initial_ingest_fraction, 0.0, 1.0));
    const int epochs = std::max(1, config_.initial_ingest_epochs);
    const uint64_t batch =
        (seed_rows + static_cast<uint64_t>(epochs) - 1) /
        static_cast<uint64_t>(epochs);
    while (ingested_rows_ < seed_rows && batch > 0) {
      const uint64_t count = std::min(batch, seed_rows - ingested_rows_);
      Result<uint64_t> epoch =
          primary_->Ingest(db_->lineorder.data() + ingested_rows_, count);
      if (!epoch.ok()) return epoch.status();
      ingested_rows_ += count;
      epoch_rows_.push_back(ingested_rows_);
      ++counters_.ingest_epochs;
      counters_.ingest_rows += count;
    }
  }
  prepared_ = true;
  return Status::OK();
}

void QueryService::Schedule(double at, EventKind kind, uint64_t arg) {
  events_.push(Event{at, seq_++, kind, arg});
}

bool QueryService::Expired(uint64_t id) const {
  const RequestRecord& request = requests_[id];
  return request.deadline_seconds >= 0.0 &&
         now_ >= request.deadline_seconds - kEps;
}

void QueryService::ObserveHealth(double estimate) {
  policy_.Observe(now_, estimate);
  // Pause-and-drain and a recovery window both stop grants through the
  // gate's one pause, which its shed rule reads too.
  if (policy_.tier() == DegradationTier::kPauseAndDrain || crashed_window_) {
    admission_.PauseForRecovery();
  } else {
    admission_.ResumeAfterRecovery();
  }
}

Result<ServiceReport> QueryService::Run() {
  if (!prepared_) {
    Status st = Prepare();
    if (!st.ok()) return st;
  }

  fault_clear_edges_ = chaos_.FaultClearEdges();
  for (size_t i = 0; i < chaos_.events().size(); ++i) {
    Schedule(chaos_.events()[i].at_seconds, EventKind::kChaos, i);
  }
  if (config_.workload.arrival == ArrivalModel::kClosedLoop) {
    for (uint64_t c = 0; c < config_.workload.num_clients; ++c) {
      Schedule(workload_.NextThink(c), EventKind::kSubmit, c);
    }
  } else {
    Schedule(workload_.NextInterarrival(), EventKind::kArrival, 0);
  }
  OnTickEvent();  // tick 0 at t=0, schedules the rest

  while (!events_.empty() && run_error_.ok()) {
    const Event event = events_.top();
    events_.pop();
    now_ = std::max(now_, event.at);
    if (event.at > horizon() + kEps) {
      // Past the horizon only completions and recovery settle; nothing
      // new starts, so the queue drains and the loop terminates.
      if (event.kind != EventKind::kComplete &&
          event.kind != EventKind::kRecoveryDone) {
        continue;
      }
    }
    switch (event.kind) {
      case EventKind::kSubmit:
        OnSubmitEvent(event.arg);
        break;
      case EventKind::kArrival:
        OnArrivalEvent();
        break;
      case EventKind::kRetry:
        ++counters_.submitted;
        SubmitRequest(event.arg);
        break;
      case EventKind::kComplete:
        OnCompleteEvent(event.arg);
        break;
      case EventKind::kTick:
        OnTickEvent();
        break;
      case EventKind::kChaos:
        OnChaosEvent(event.arg);
        break;
      case EventKind::kRecoveryDone:
        OnRecoveryDone();
        break;
    }
  }
  if (!run_error_.ok()) return run_error_;

  ServiceReport report;
  counters_.breaker_trips = breakers_ ? breakers_->counters().trips : 0;
  report.admission = admission_.counters();
  counters_.aged_grants = report.admission.aged_grants;
  report.counters = counters_;
  std::vector<double> all;
  std::vector<double> per_class[qos::kNumPriorities];
  for (const RequestRecord& r : requests_) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    all.push_back(r.Latency());
    per_class[static_cast<int>(r.priority)].push_back(r.Latency());
  }
  report.latency = Summarize(&all);
  for (int p = 0; p < qos::kNumPriorities; ++p) {
    report.latency_by_priority[p] = Summarize(&per_class[p]);
  }
  report.chaos_log = chaos_.Describe();
  report.degradation_log = policy_.transitions();
  report.profile_csv = profiler_.ToCsv();
  std::sort(fault_clear_edges_.begin(), fault_clear_edges_.end());
  report.fault_clear_edges = fault_clear_edges_;
  report.requests = std::move(requests_);
  return report;
}

void QueryService::OnSubmitEvent(uint64_t client) {
  const ClientProfile profile = workload_.ProfileOf(client);
  RequestRecord request;
  request.client = client;
  request.query = workload_.NextQuery(client);
  request.priority = profile.priority;
  request.submit_seconds = now_;
  request.deadline_seconds = profile.deadline_seconds > 0.0
                                 ? now_ + profile.deadline_seconds
                                 : -1.0;
  request.sheds_left = profile.shed_retry_budget;
  requests_.push_back(request);
  ++counters_.submitted;
  SubmitRequest(requests_.size() - 1);
}

void QueryService::OnArrivalEvent() {
  const uint64_t client = workload_.NextArrivalClient();
  const double next = now_ + workload_.NextInterarrival();
  if (next <= horizon()) Schedule(next, EventKind::kArrival, 0);
  // Open loop: the arrival submits regardless of the client's other
  // outstanding work — arrivals never slow down with the server.
  OnSubmitEvent(client);
}

void QueryService::SubmitRequest(uint64_t id) {
  const RequestRecord& request = requests_[id];
  // Deadline precedence: an expired request is never shed — the
  // deadline, not the queue, is what failed.
  const bool expired = Expired(id);
  // Tier 1+: batch refused at the edge before the gate sees it.
  if (!expired && policy_.tier() >= DegradationTier::kShedLowPriority &&
      request.priority == qos::QueryPriority::kBatch) {
    ShedRequest(id, /*edge=*/true);
    return;
  }
  const Status queued = admission_.Enqueue(id, request.priority, expired);
  if (queued.code() == StatusCode::kDeadlineExceeded) {
    ExpireQueuedRequest(id);
  } else if (!queued.ok()) {
    ShedRequest(id, /*edge=*/false);
  } else {
    PumpGrants();
  }
}

void QueryService::ShedRequest(uint64_t id, bool edge) {
  RequestRecord& request = requests_[id];
  if (edge) {
    ++counters_.edge_shed;
  } else {
    ++counters_.queue_shed;
  }
  if (request.sheds_left > 0) {
    --request.sheds_left;
    ++counters_.retried;
    Schedule(now_ + workload_.NextBackoff(request.client), EventKind::kRetry,
             id);
    return;
  }
  request.outcome = RequestOutcome::kShed;
  request.complete_seconds = now_;
  ++counters_.gave_up;
  ScheduleClientNext(request.client);
}

void QueryService::ExpireQueuedRequest(uint64_t id) {
  RequestRecord& request = requests_[id];
  request.outcome = RequestOutcome::kExpired;
  request.complete_seconds = now_;
  ++counters_.expired_queued;
  ScheduleClientNext(request.client);
}

void QueryService::PurgeExpiredWaiters() {
  auto expired = [this](uint64_t id) { return Expired(id); };
  for (uint64_t id : admission_.WithdrawExpired(expired)) {
    ExpireQueuedRequest(id);
  }
}

void QueryService::PumpGrants() {
  // A paused gate grants nothing; its expired waiters leave at the next
  // tick.
  if (admission_.recovery_paused()) return;
  PurgeExpiredWaiters();
  while (std::optional<qos::AdmissionGrant> grant = admission_.GrantNext()) {
    GrantRequest(grant->id, std::move(grant->ticket));
  }
}

void QueryService::GrantRequest(uint64_t id, qos::AdmissionTicket ticket) {
  RequestRecord& request = requests_[id];
  request.grant_seconds = now_;
  ++counters_.granted;
  running_.emplace(id, std::move(ticket));

  const bool degraded_plan =
      policy_.tier() >= DegradationTier::kBrownOut &&
      request.priority != qos::QueryPriority::kHigh && degraded_ != nullptr;
  request.degraded_plan = degraded_plan;
  if (degraded_plan) ++counters_.degraded_grants;
  request.snapshot_epoch = table_ ? table_->committed_epoch() : 0;

  const CachedRun& run = CachedExecute(request, degraded_plan);
  if (!run.ok) {
    ++counters_.failed_executions;
    request.outcome = RequestOutcome::kFailed;
    request.planned_finish_seconds = now_;
    Schedule(now_, EventKind::kComplete, id);
    return;
  }
  const double service_seconds =
      std::max(run.seconds * config_.service_time_scale, 1e-6);
  request.planned_finish_seconds = now_ + service_seconds;
  double finish = request.planned_finish_seconds;
  if (request.deadline_seconds >= 0.0 && finish > request.deadline_seconds) {
    // The deadline cuts the run (cooperatively, between morsels on the
    // modeled timeline): the slot is held until the deadline fires.
    finish = request.deadline_seconds;
  }
  Schedule(finish, EventKind::kComplete, id);
}

void QueryService::OnCompleteEvent(uint64_t id) {
  RequestRecord& request = requests_[id];
  running_.erase(id);  // releases the admission ticket
  request.complete_seconds = now_;
  if (request.outcome == RequestOutcome::kPending) {
    if (request.planned_finish_seconds > now_ + kEps) {
      request.outcome = RequestOutcome::kExpired;
      ++counters_.expired_running;
    } else {
      request.outcome = RequestOutcome::kCompleted;
      ++counters_.completed;
    }
  }
  ScheduleClientNext(request.client);
  PumpGrants();
}

void QueryService::ScheduleClientNext(uint64_t client) {
  if (config_.workload.arrival != ArrivalModel::kClosedLoop) return;
  const double next = now_ + workload_.NextThink(client);
  if (next <= horizon()) Schedule(next, EventKind::kSubmit, client);
}

double QueryService::HealthEstimate() const {
  if (crashed_window_) return 0.0;
  if (injector_) return qos::DegradationEstimate(*injector_);
  return 1.0;
}

void QueryService::OnTickEvent() {
  const double t = static_cast<double>(tick_index_) * kTickSeconds;
  now_ = std::max(now_, t);
  if (injector_) injector_->AdvanceTo(now_);
  const double estimate = HealthEstimate();
  ObserveHealth(estimate);
  admission_.SetLoadSignal({admission_.running(), estimate});
  PurgeExpiredWaiters();
  PumpGrants();

  ProfileTick tick;
  tick.tick = tick_index_;
  tick.seconds = now_;
  tick.tier = static_cast<int>(policy_.tier());
  tick.estimate = estimate;
  tick.in_flight = admission_.running();
  tick.waiting = admission_.waiting();
  tick.submitted = counters_.submitted;
  tick.admitted = counters_.granted;
  tick.shed = counters_.edge_shed + counters_.queue_shed;
  tick.expired = counters_.expired_queued + counters_.expired_running;
  tick.completed = counters_.completed;
  tick.retried = counters_.retried;
  tick.tick_completions = counters_.completed - completed_at_last_tick_;
  completed_at_last_tick_ = counters_.completed;
  tick.crashes = counters_.crashes;
  tick.recoveries = counters_.recoveries;
  tick.breaker_trips = breakers_ ? breakers_->counters().trips : 0;
  const governor::GovernorDecision decision = governor_->decision();
  tick.governor_quantum = decision.quantum;
  tick.write_threads = decision.write_threads;
  tick.staged_bytes = decision.staged_bytes;
  tick.committed_epoch = table_ ? table_->committed_epoch() : 0;
  profiler_.Record(tick);

  ++tick_index_;
  const double next = static_cast<double>(tick_index_) * kTickSeconds;
  if (next <= horizon() + kEps) Schedule(next, EventKind::kTick, 0);
}

void QueryService::OnChaosEvent(uint64_t index) {
  const ChaosEvent& event = chaos_.events()[index];
  if (injector_) injector_->AdvanceTo(now_);
  switch (event.kind) {
    case ChaosKind::kThrottleStart:
    case ChaosKind::kThrottleEnd:
      // The windows live in the FaultSpec; AdvanceTo applies them. The
      // events only mark SLO edges (already in fault_clear_edges_).
      break;
    case ChaosKind::kCrash:
      if (crash_ && !crashed_window_) {
        // Arm at the next persistence boundary: the next ingest burst's
        // first primitive trips it mid-epoch.
        crash_->Arm(static_cast<int64_t>(crash_->boundaries_seen()));
      }
      break;
    case ChaosKind::kIngestBurst:
      DoIngest(event.rows);
      break;
  }
}

void QueryService::DoIngest(uint64_t rows) {
  if (!table_ || !primary_) return;
  if (crashed_window_) {
    pending_burst_rows_ += rows;
    return;
  }
  rows = std::min(rows, db_->lineorder.size() - ingested_rows_);
  if (rows == 0) return;
  Result<uint64_t> epoch =
      primary_->Ingest(db_->lineorder.data() + ingested_rows_, rows);
  if (epoch.ok()) {
    ingested_rows_ += rows;
    epoch_rows_.push_back(ingested_rows_);
    ++counters_.ingest_epochs;
    counters_.ingest_rows += rows;
    if (epoch.value() != epoch_rows_.size() - 1) {
      ++counters_.epoch_regressions;
    }
    return;
  }
  if (epoch.status().code() == StatusCode::kUnavailable && crash_ &&
      crash_->crashed()) {
    OnCrash(rows);
    return;
  }
  run_error_ = epoch.status();
}

void QueryService::OnCrash(uint64_t lost_rows) {
  ++counters_.crashes;
  crashed_window_ = true;
  pending_burst_rows_ += lost_rows;
  const uint64_t committed_before = epoch_rows_.size() - 1;
  // Dead platform: tier 3 immediately (pause skips hysteresis), and the
  // gate parks new admissions while waiters hold.
  ObserveHealth(0.0);
  // Recovery runs host-side now; its modeled cost holds the pause
  // window on the modeled timeline.
  Result<RecoveryStats> stats = primary_->Recover();
  if (!stats.ok()) {
    run_error_ = stats.status();
    return;
  }
  if (stats->committed_epoch != committed_before) {
    // Committed-epoch loss (or phantom commit): the scorecard's
    // zero-loss invariant is broken.
    ++counters_.epoch_regressions;
  }
  Schedule(now_ + std::max(stats->modeled_seconds, 1e-6),
           EventKind::kRecoveryDone, 0);
}

void QueryService::OnRecoveryDone() {
  crashed_window_ = false;
  ++counters_.recoveries;
  ObserveHealth(HealthEstimate());
  fault_clear_edges_.push_back(now_);
  const uint64_t rows = pending_burst_rows_;
  pending_burst_rows_ = 0;
  if (rows > 0) DoIngest(rows);
  PumpGrants();
}

const QueryService::CachedRun& QueryService::CachedExecute(
    const RequestRecord& request, bool degraded_plan) {
  // The key is every input that can change the run's output or modeled
  // seconds: the plan, the query, the pinned epoch, and the actuator /
  // health state the engine executes under. Deadlines and priorities are
  // deliberately absent — with the modeled clock frozen during a host
  // execution they cannot alter the result (the grant pre-check already
  // guaranteed the deadline has not fired).
  char key[256];
  std::string actuators;
  const governor::GovernorDecision decision = governor_->decision();
  actuators.append("w").append(std::to_string(decision.write_threads));
  for (const std::string& name : decision.staged) actuators += "s" + name;
  if (breakers_) {
    for (bool healthy : breakers_->HealthySockets()) {
      actuators += healthy ? "H" : "Q";
    }
  }
  if (injector_) {
    char f[32];
    for (int s = 0; s < model_->config().topology.sockets(); ++s) {
      std::snprintf(f, sizeof(f), "d%.3f", injector_->DimmServiceFactor(s));
      actuators += f;
    }
  }
  std::snprintf(key, sizeof(key), "e%d|q%d|ep%llu|%s", degraded_plan ? 1 : 0,
                static_cast<int>(request.query),
                static_cast<unsigned long long>(request.snapshot_epoch),
                actuators.c_str());
  auto it = run_cache_.find(key);
  if (it != run_cache_.end()) {
    ++counters_.cache_hits;
    return it->second;
  }

  ++counters_.real_executions;
  qos::QueryOptions options;
  options.priority = request.priority;
  if (request.deadline_seconds >= 0.0) {
    // Armed through the real QoS plumbing; the frozen modeled clock means
    // it cannot fire mid-run (the service enforces mid-run expiry on the
    // event timeline instead), so the cached result is deadline-free.
    options.deadline = qos::Deadline::Modeled(request.deadline_seconds);
    options.modeled_clock = [this] { return now_; };
  }
  if (table_) options.snapshot_epoch = request.snapshot_epoch;

  SsbEngine* engine = degraded_plan ? degraded_.get() : primary_.get();
  Result<SsbEngine::QueryRun> run = engine->Execute(request.query, options);
  CachedRun cached;
  if (run.ok()) {
    cached.ok = true;
    cached.output = run->output;
    cached.seconds = run->seconds;
    if (!(run->output ==
          ReferenceFor(request.query, request.snapshot_epoch))) {
      ++counters_.incorrect_results;
    }
  } else {
    cached.ok = false;
    cached.code = run.status().code();
  }
  return run_cache_.emplace(key, std::move(cached)).first->second;
}

const ssb::QueryOutput& QueryService::ReferenceFor(ssb::QueryId query,
                                                   uint64_t epoch) {
  const uint64_t key_epoch = table_ ? epoch : 0;
  const auto key = std::make_pair(key_epoch, static_cast<int>(query));
  auto it = reference_cache_.find(key);
  if (it != reference_cache_.end()) return it->second;
  if (!table_) {
    return reference_cache_.emplace(key, reference_.Execute(query))
        .first->second;
  }
  // Durable: the truth at epoch e is the reference over the committed
  // row prefix — the same prefix order Ingest follows.
  auto db_it = prefix_dbs_.find(key_epoch);
  if (db_it == prefix_dbs_.end()) {
    auto prefix = std::make_unique<ssb::Database>(*db_);
    prefix->lineorder.resize(epoch_rows_[key_epoch]);
    db_it = prefix_dbs_.emplace(key_epoch, std::move(prefix)).first;
  }
  ssb::ReferenceExecutor prefix_reference(db_it->second.get());
  return reference_cache_.emplace(key, prefix_reference.Execute(query))
      .first->second;
}

}  // namespace pmemolap::service
