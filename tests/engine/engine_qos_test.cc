// Query-lifecycle robustness end to end: deadlines cancel between
// morsels with partial progress, the admission gate sheds with
// kResourceExhausted and reads the platform's live degradation estimate,
// recovery rides out dense permanent poison, an inverted scan window is
// refused before admission, and every admitted-and-completed query stays
// bit-identical to the reference — an empty window included.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "engine/engine.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_domain.h"
#include "governor/governor.h"
#include "qos/admission.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

class QosEnv {
 public:
  static QosEnv& Get() {
    static QosEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  QosEnv() : db_(*ssb::Generate({.scale_factor = 0.01, .seed = 17})) {}

  Database db_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig SmallConfig() {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 4;
  config.morsel_tuples = 512;  // enough morsels for mid-run cancellation
  return config;
}

TEST(EngineQosTest, DefaultOptionsRunToCompletionWithFullProgress) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  SsbEngine engine(&env.db(), &model, SmallConfig());
  ASSERT_TRUE(engine.Prepare().ok());

  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.progress = &progress;
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output, env.reference().Execute(QueryId::kQ1_1));
  EXPECT_TRUE(progress.admitted);
  EXPECT_GT(progress.units_total, 0u);
  EXPECT_EQ(progress.units_executed, progress.units_total);
  EXPECT_EQ(progress.units_dropped, 0u);
  EXPECT_EQ(run->progress.units_executed, progress.units_executed);
}

TEST(EngineQosTest, ExpiredWallBudgetAbortsBeforeAnyWork) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  SsbEngine engine(&env.db(), &model, SmallConfig());
  ASSERT_TRUE(engine.Prepare().ok());

  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.deadline = qos::Deadline::Wall(0.0);
  options.progress = &progress;
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ2_1, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  // Aborted at the up-front check: admitted, but nothing dispatched.
  EXPECT_TRUE(progress.admitted);
  EXPECT_EQ(progress.units_executed, 0u);
}

TEST(EngineQosTest, ModeledDeadlineCancelsMidRunWithPartialProgress) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  SsbEngine engine(&env.db(), &model, SmallConfig());
  ASSERT_TRUE(engine.Prepare().ok());

  // A counting clock: every between-morsel check advances modeled time
  // by one second, so the deadline fires deterministically mid-plan.
  std::atomic<uint64_t> ticks{0};
  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.deadline = qos::Deadline::Modeled(10.0);
  options.modeled_clock = [&ticks] {
    return static_cast<double>(ticks.fetch_add(1));
  };
  options.progress = &progress;
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(progress.admitted);
  EXPECT_GT(progress.units_total, 12u)
      << "plan too small for a mid-run deadline to mean anything";
  EXPECT_GT(progress.units_executed, 0u);
  EXPECT_GT(progress.units_dropped, 0u);
  // Morsels never tear: every unit is either executed or dropped whole.
  EXPECT_EQ(progress.units_executed + progress.units_dropped,
            progress.units_total);
}

TEST(EngineQosTest, AdmissionGateShedsWhenFullAndAdmitsAfterRelease) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  qos::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.normal_queue = 0;  // no queueing: full means shed
  qos::AdmissionController gate(limits);
  EngineConfig config = SmallConfig();
  config.admission = &gate;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  // Hold the only slot externally; the engine's submission must shed.
  Result<qos::AdmissionTicket> holder =
      gate.TryAdmit(qos::QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());
  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.progress = &progress;
  Result<SsbEngine::QueryRun> shed = engine.Execute(QueryId::kQ1_1, options);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(progress.admitted);
  EXPECT_EQ(gate.counters().shed, 1u);

  holder->Release();
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output, env.reference().Execute(QueryId::kQ1_1));
  EXPECT_TRUE(progress.admitted);
  EXPECT_EQ(gate.counters().completed, 2u);  // holder + the query
  EXPECT_EQ(gate.running(), 0);
}

TEST(EngineQosTest, AdmissionReadsTheInjectorsLiveDegradation) {
  // The load signal's platform half is the injector's estimate at the
  // query's admission, governed or not: inside a socket-0 throttle window
  // it reads the window's factor, and the first query after the window
  // closes reads healthy again — the governor holds no copy that lags.
  QosEnv& env = QosEnv::Get();
  FaultSpec spec;
  ThrottleWindow window;
  window.socket = 0;
  window.start_seconds = 10.0;
  window.end_seconds = 20.0;
  window.service_factor = 0.3;
  spec.throttle_windows.push_back(window);
  MemSystemModel model;
  for (bool governed : {false, true}) {
    FaultInjector injector(spec);
    PmemSpace space(model.config().topology);
    injector.Arm(&space);
    FaultDomain domain;
    domain.space = &space;
    domain.injector = &injector;
    governor::BandwidthGovernor governor(&model);
    qos::AdmissionController gate{qos::AdmissionLimits{}};
    EngineConfig config = SmallConfig();
    config.fault = &domain;
    config.admission = &gate;
    if (governed) config.governor = &governor;
    SsbEngine engine(&env.db(), &model, config);
    ASSERT_TRUE(engine.Prepare().ok());

    for (double now : {15.0, 16.0, 25.0}) {
      injector.AdvanceTo(now);
      Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ1_1);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->output, env.reference().Execute(QueryId::kQ1_1));
      EXPECT_DOUBLE_EQ(gate.load_signal().degradation,
                       qos::DegradationEstimate(injector))
          << "governed " << governed << " at " << now;
      EXPECT_DOUBLE_EQ(gate.load_signal().degradation, now < 20.0 ? 0.3 : 1.0)
          << "governed " << governed << " at " << now;
    }
    EXPECT_EQ(governor.decision().quantum, governed ? 3 : 0);
  }
}

TEST(EngineQosTest, EmptyWindowAnswersTheEmptyTableReference) {
  QosEnv& env = QosEnv::Get();
  Database empty = env.db();
  empty.lineorder.clear();
  const ssb::ReferenceExecutor reference(&empty);
  MemSystemModel model;
  for (bool pooled : {false, true}) {
    EngineConfig config = SmallConfig();
    config.parallel_execution = pooled;
    SsbEngine engine(&env.db(), &model, config);
    ASSERT_TRUE(engine.Prepare().ok());
    qos::QueryOptions options;
    options.scan_begin = 100;
    options.scan_end = 100;
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> run = engine.Execute(query, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->output, reference.Execute(query))
          << ssb::QueryName(query) << (pooled ? " pool" : " serial");
      EXPECT_EQ(run->cpu.tuples_scanned, 0u);
    }
  }
}

TEST(EngineQosTest, InvertedWindowIsRejectedBeforeAdmission) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  qos::AdmissionController gate{qos::AdmissionLimits()};
  for (bool pooled : {false, true}) {
    EngineConfig config = SmallConfig();
    config.parallel_execution = pooled;
    config.admission = &gate;
    SsbEngine engine(&env.db(), &model, config);
    ASSERT_TRUE(engine.Prepare().ok());
    qos::QueryProgress progress;
    qos::QueryOptions options;
    options.scan_begin = 200;
    options.scan_end = 100;
    options.progress = &progress;
    Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ2_1, options);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(progress.admitted);
  }
  EXPECT_EQ(gate.counters().admitted, 0u);
  EXPECT_EQ(gate.counters().shed, 0u);
  EXPECT_EQ(gate.running(), 0);
}

TEST(EngineQosTest, RecoveryRidesOutDensePermanentPoison) {
  QosEnv& env = QosEnv::Get();
  FaultSpec spec;
  spec.poison_lines_per_mib = 256.0;  // dense permanent poison
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config = SmallConfig();
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_GT(injector.counters().lines_poisoned, 0u);

  // Recovery rides out the poison and the result is still bit-identical.
  Result<SsbEngine::QueryRun> healed = engine.Execute(QueryId::kQ1_1);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->output, env.reference().Execute(QueryId::kQ1_1));
  EXPECT_GT(injector.counters().retries, 0u);
}

TEST(EngineQosTest, QuarantinedSocketRePlansAndStaysBitIdentical) {
  QosEnv& env = QosEnv::Get();
  FaultInjector injector(FaultSpec::Healthy());
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  BreakerBoard board(&injector, model.config().topology.sockets());
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;
  domain.breakers = &board;

  EngineConfig config = SmallConfig();
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  // Trip socket 0's breaker: its morsels must re-plan onto healthy
  // queues while keeping their socket identity (bit-identical results).
  for (int i = 0; i < 3; ++i) board.RecordEscalation(0);
  ASSERT_TRUE(board.Quarantined(0));
  qos::QueryProgress progress;
  qos::QueryOptions options;
  options.progress = &progress;
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_1, QueryId::kQ4_1}) {
    Result<SsbEngine::QueryRun> run = engine.Execute(query, options);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(query))
        << ssb::QueryName(query);
    EXPECT_EQ(progress.units_executed, progress.units_total);
  }
}

TEST(EngineQosTest, PriorityOrderingHoldsUnderTheEngineGate) {
  QosEnv& env = QosEnv::Get();
  MemSystemModel model;
  qos::AdmissionLimits limits;
  limits.max_concurrent = 2;
  qos::AdmissionController gate(limits);
  EngineConfig config = SmallConfig();
  config.admission = &gate;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  // Back-to-back admitted queries at different priorities all complete
  // and release their slots.
  for (qos::QueryPriority priority :
       {qos::QueryPriority::kHigh, qos::QueryPriority::kNormal,
        qos::QueryPriority::kBatch}) {
    qos::QueryOptions options;
    options.priority = priority;
    Result<SsbEngine::QueryRun> run =
        engine.Execute(QueryId::kQ3_1, options);
    ASSERT_TRUE(run.ok()) << qos::QueryPriorityName(priority);
    EXPECT_EQ(run->output, env.reference().Execute(QueryId::kQ3_1));
  }
  EXPECT_EQ(gate.counters().admitted, 3u);
  EXPECT_EQ(gate.counters().completed, 3u);
  EXPECT_EQ(gate.running(), 0);
}

}  // namespace
}  // namespace pmemolap
