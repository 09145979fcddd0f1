// Overload and fault-quarantine robustness: the query-lifecycle layer
// (deadlines, admission control, fault-domain circuit breakers) under
// deliberately hostile conditions.
//
// Three demonstrations, each with explicit pass/fail claims (the binary
// exits nonzero when a claim fails, so CI catches regressions):
//
//   1. Circuit breakers: on a platform with dense permanent poison, the
//      same query sequence runs with breakers disabled (retry-every-touch)
//      and enabled (trip -> quarantine -> bypass). Breakers must cut the
//      per-access recovery cost (failovers/retries) while every query
//      stays bit-identical to the fault-free reference.
//   2. Admission control: on a throttled platform (degradation below the
//      normal-priority shed threshold) with the only execution slot held,
//      a submission burst is shed deterministically with
//      kResourceExhausted; a queued waiter whose deadline fires leaves
//      with kDeadlineExceeded; after the slot frees, every priority class
//      admits and completes bit-identically.
//   3. Deadlines: a modeled-clock deadline fires mid-plan. The query
//      aborts with kDeadlineExceeded between morsels — partial progress
//      is reported and every morsel is either executed or dropped whole
//      (a kernel never tears mid-morsel).
#include <atomic>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "engine/engine.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_domain.h"
#include "qos/admission.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

EngineConfig BaseConfig() {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 8;
  return config;
}

// ---------------------------------------------------------------------
// Part 1: breaker quarantine vs retry-every-touch on poisoned PMEM.
// ---------------------------------------------------------------------

struct BreakerRun {
  FaultCounters fault;
  BreakerCounters breaker;
  int verified = 0;
  int executed = 0;
};

BreakerRun RunPoisonedSweep(const ssb::Database& db,
                            const ssb::ReferenceExecutor& reference,
                            int reps, bool with_breakers) {
  // Dense permanent poison: without quarantine, every touch of a poisoned
  // dimension replica pays a failover again.
  FaultSpec spec;
  spec.poison_lines_per_mib = 128.0;
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  BreakerBoard board(&injector, model.config().topology.sockets());
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;
  if (with_breakers) domain.breakers = &board;

  EngineConfig config = BaseConfig();
  config.fault = &domain;
  // Single worker: breaker trip points depend on escalation order, so
  // concurrent workers would make the counters run-to-run noisy. One
  // worker keeps the comparison byte-identical across runs.
  config.threads = 1;
  SsbEngine engine(&db, &model, config);
  BreakerRun run;
  Status prepared = engine.Prepare();
  if (!prepared.ok()) {
    std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
    return run;
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> result = engine.Execute(query);
      if (!result.ok()) {
        std::printf("  %s failed: %s\n", ssb::QueryName(query).c_str(),
                    result.status().ToString().c_str());
        continue;
      }
      ++run.executed;
      if (result->output == reference.Execute(query)) ++run.verified;
    }
  }
  run.fault = injector.counters();
  run.breaker = board.counters();
  return run;
}

void RunBreakerComparison(const ssb::Database& db,
                          const ssb::ReferenceExecutor& reference,
                          int reps, std::ofstream& json) {
  std::printf(
      "\n[1] Fault-domain circuit breakers on densely poisoned PMEM\n");
  const BreakerRun off = RunPoisonedSweep(db, reference, reps, false);
  const BreakerRun on = RunPoisonedSweep(db, reference, reps, true);
  const int total = reps * static_cast<int>(ssb::AllQueries().size());

  TablePrinter table({"Breakers", "Failovers", "Retries", "Backoff [us]",
                      "Poisoned reads", "Verified"});
  table.AddRow({"off", TablePrinter::Cell(off.fault.failovers),
                TablePrinter::Cell(off.fault.retries),
                TablePrinter::Cell(off.fault.backoff_us),
                TablePrinter::Cell(off.fault.poisoned_reads),
                U64(off.verified) + "/" + U64(total)});
  table.AddRow({"on", TablePrinter::Cell(on.fault.failovers),
                TablePrinter::Cell(on.fault.retries),
                TablePrinter::Cell(on.fault.backoff_us),
                TablePrinter::Cell(on.fault.poisoned_reads),
                U64(on.verified) + "/" + U64(total)});
  table.Print();
  std::printf(
      "  breaker evidence: %llu escalations, %llu trips, %llu bypasses, "
      "%llu probes, %llu restores\n",
      static_cast<unsigned long long>(on.breaker.escalations),
      static_cast<unsigned long long>(on.breaker.trips),
      static_cast<unsigned long long>(on.breaker.bypasses),
      static_cast<unsigned long long>(on.breaker.probes),
      static_cast<unsigned long long>(on.breaker.restores));

  Claim(off.verified == total && on.verified == total,
        "all " + U64(total) + " query runs bit-identical to the "
        "fault-free reference in both configurations");
  Claim(on.breaker.trips > 0 && on.breaker.bypasses > 0,
        "breakers tripped (" + U64(on.breaker.trips) + ") and served " +
        U64(on.breaker.bypasses) + " accesses around the quarantine");
  const uint64_t cost_off = off.fault.failovers + off.fault.retries;
  const uint64_t cost_on = on.fault.failovers + on.fault.retries;
  Claim(cost_on < cost_off,
        "quarantine cut per-access recovery cost: " + U64(cost_on) +
        " failovers+retries with breakers vs " + U64(cost_off) +
        " without");

  json << "  \"breakers\": {\n"
       << "    \"queries\": " << total << ",\n"
       << "    \"verified_off\": " << off.verified << ",\n"
       << "    \"verified_on\": " << on.verified << ",\n"
       << "    \"failovers_off\": " << off.fault.failovers << ",\n"
       << "    \"failovers_on\": " << on.fault.failovers << ",\n"
       << "    \"retries_off\": " << off.fault.retries << ",\n"
       << "    \"retries_on\": " << on.fault.retries << ",\n"
       << "    \"backoff_us_off\": " << off.fault.backoff_us << ",\n"
       << "    \"backoff_us_on\": " << on.fault.backoff_us << ",\n"
       << "    \"trips\": " << on.breaker.trips << ",\n"
       << "    \"bypasses\": " << on.breaker.bypasses << "\n"
       << "  },\n";
}

// ---------------------------------------------------------------------
// Part 2: admission control sheds a burst on a throttled platform.
// ---------------------------------------------------------------------

void RunAdmissionBurst(const ssb::Database& db,
                       const ssb::ReferenceExecutor& reference,
                       std::ofstream& json) {
  std::printf(
      "\n[2] Admission control under load shedding (throttled platform)\n");
  // An active thermal-throttle window drags the degradation estimate to
  // 0.25 — below qos::kShedNormalBelow (0.40), so normal and batch queues
  // collapse to zero while the platform is throttled.
  FaultSpec spec = FaultSpec::Healthy();
  ThrottleWindow window;
  window.socket = 0;
  window.start_seconds = 10.0;
  window.end_seconds = 15.0;
  window.service_factor = 0.25;
  spec.throttle_windows.push_back(window);
  FaultInjector injector(spec);
  injector.AdvanceTo(12.0);
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  qos::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.high_queue = 2;
  limits.normal_queue = 2;
  limits.batch_queue = 2;
  qos::AdmissionController gate(limits);
  EngineConfig config = BaseConfig();
  config.fault = &domain;
  config.admission = &gate;
  SsbEngine engine(&db, &model, config);
  Status prepared = engine.Prepare();
  if (!prepared.ok()) {
    std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
    ++g_failures;
    return;
  }
  const double degradation = qos::DegradationEstimate(injector);
  std::printf("  degradation estimate at t=12 s: %.2f (normal shed below "
              "%.2f)\n", degradation, qos::kShedNormalBelow);

  // Hold the only execution slot, then throw a burst at the gate.
  Result<qos::AdmissionTicket> holder =
      gate.TryAdmit(qos::QueryPriority::kHigh);
  if (!holder.ok()) {
    std::printf("  holder admission failed\n");
    ++g_failures;
    return;
  }
  int sheds = 0;
  for (qos::QueryPriority priority :
       {qos::QueryPriority::kNormal, qos::QueryPriority::kBatch}) {
    qos::QueryOptions options;
    options.priority = priority;
    Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
    const bool shed =
        !run.ok() && run.status().code() == StatusCode::kResourceExhausted;
    if (shed) ++sheds;
    std::printf("  burst %s: %s\n", qos::QueryPriorityName(priority),
                shed ? "shed (resource exhausted)"
                     : run.status().ToString().c_str());
  }
  // High priority may still queue — but its deadline fires while waiting.
  qos::QueryOptions expiring;
  expiring.priority = qos::QueryPriority::kHigh;
  expiring.deadline = qos::Deadline::Wall(0.0);
  Result<SsbEngine::QueryRun> expired =
      engine.Execute(QueryId::kQ1_1, expiring);
  const bool expired_in_queue =
      !expired.ok() &&
      expired.status().code() == StatusCode::kDeadlineExceeded;
  std::printf("  queued high-priority waiter: %s\n",
              expired_in_queue ? "left with deadline exceeded"
                               : expired.status().ToString().c_str());

  holder->Release();
  int completed_ok = 0;
  for (qos::QueryPriority priority :
       {qos::QueryPriority::kHigh, qos::QueryPriority::kNormal,
        qos::QueryPriority::kBatch}) {
    qos::QueryOptions options;
    options.priority = priority;
    Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
    if (run.ok() && run->output == reference.Execute(QueryId::kQ1_1)) {
      ++completed_ok;
    }
  }
  const qos::AdmissionCounters counters = gate.counters();
  std::printf(
      "  gate counters: %llu admitted, %llu shed, %llu expired waiting, "
      "%llu completed\n",
      static_cast<unsigned long long>(counters.admitted),
      static_cast<unsigned long long>(counters.shed),
      static_cast<unsigned long long>(counters.expired_waiting),
      static_cast<unsigned long long>(counters.completed));

  Claim(sheds == 2,
        "normal and batch submissions shed fast with kResourceExhausted "
        "while the slot was held");
  Claim(expired_in_queue && counters.expired_waiting >= 1,
        "a queued waiter's deadline fired with kDeadlineExceeded instead "
        "of ever running");
  Claim(completed_ok == 3,
        "after the slot freed, every priority class admitted and "
        "completed bit-identically");
  Claim(gate.running() == 0 && counters.admitted == counters.completed,
        "every granted ticket was released (no leaked slots)");

  json << "  \"admission\": {\n"
       << "    \"degradation\": " << degradation << ",\n"
       << "    \"admitted\": " << counters.admitted << ",\n"
       << "    \"shed\": " << counters.shed << ",\n"
       << "    \"expired_waiting\": " << counters.expired_waiting << ",\n"
       << "    \"completed\": " << counters.completed << "\n"
       << "  },\n";
}

// ---------------------------------------------------------------------
// Part 3: a modeled deadline cancels mid-plan between morsels.
// ---------------------------------------------------------------------

void RunDeadlineDemo(const ssb::Database& db, std::ofstream& json) {
  std::printf("\n[3] Mid-run modeled deadline with partial progress\n");
  MemSystemModel model;
  EngineConfig config = BaseConfig();
  config.threads = 4;
  config.morsel_tuples = 512;  // many morsels, so the cut lands mid-plan
  SsbEngine engine(&db, &model, config);
  Status prepared = engine.Prepare();
  if (!prepared.ok()) {
    std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
    ++g_failures;
    return;
  }

  // A counting clock: each between-morsel check advances modeled time by
  // one second, so the 10-second deadline fires deterministically.
  std::atomic<uint64_t> ticks{0};
  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.deadline = qos::Deadline::Modeled(10.0);
  options.modeled_clock = [&ticks] {
    return static_cast<double>(ticks.fetch_add(1));
  };
  options.progress = &progress;
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
  const bool deadline_fired =
      !run.ok() && run.status().code() == StatusCode::kDeadlineExceeded;
  std::printf(
      "  Q1.1: %s after %llu/%llu morsels (%llu dropped whole)\n",
      deadline_fired ? "deadline exceeded" : run.status().ToString().c_str(),
      static_cast<unsigned long long>(progress.units_executed),
      static_cast<unsigned long long>(progress.units_total),
      static_cast<unsigned long long>(progress.units_dropped));

  Claim(deadline_fired, "the modeled deadline aborted the run with "
                        "kDeadlineExceeded");
  Claim(progress.units_executed > 0 &&
            progress.units_executed < progress.units_total,
        "the cut landed mid-plan: partial progress was reported");
  Claim(progress.units_executed + progress.units_dropped ==
            progress.units_total,
        "every morsel either executed or dropped whole — cancellation "
        "never tore a kernel mid-morsel");

  json << "  \"deadline\": {\n"
       << "    \"units_total\": " << progress.units_total << ",\n"
       << "    \"units_executed\": " << progress.units_executed << ",\n"
       << "    \"units_dropped\": " << progress.units_dropped << "\n"
       << "  },\n";
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.05;
  int reps = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sf = 0.02;
      reps = 1;
    }
  }

  PrintHeader(
      "Query-lifecycle robustness under overload and persistent faults",
      "robustness extension; admission/deadline/breaker semantics per "
      "DESIGN.md section 12",
      "Shedding is deterministic and fast; deadlines cancel between "
      "morsels only; a tripped breaker beats retry-every-touch; every "
      "admitted-and-completed query stays bit-identical");

  auto db = ssb::Generate({.scale_factor = sf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ssb::ReferenceExecutor reference(&db.value());
  std::printf("\nFunctional execution at sf %.2f (%zu lineorder tuples).\n",
              sf, db->lineorder.size());

  std::ofstream json("BENCH_overload.json");
  json << "{\n  \"bench\": \"overload\",\n  \"scale_factor\": " << sf
       << ",\n  \"reps\": " << reps << ",\n";
  RunBreakerComparison(db.value(), reference, reps, json);
  RunAdmissionBurst(db.value(), reference, json);
  RunDeadlineDemo(db.value(), json);
  return FinishScorecard(json, "overload");
}
