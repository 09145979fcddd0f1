// Governor <-> engine integration: bit-identical outputs and seconds with
// the governor off, bit-identical OUTPUTS with it on (staging probes
// payload-identical replicas), deterministic actuator logs across runs,
// the committed writer clamp on a run's PMEM writes and its seconds, the
// torn XPLine charge per stored column with shaping off, staging that
// settles on perfbench `short`'s schedule, and governed runs from several
// host threads at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "core/partitioner.h"
#include "engine/engine.h"
#include "governor/governor.h"
#include "ssb/plan.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database + model (dbgen at sf 0.02, one-time cost).
class GovernorEngineEnv {
 public:
  static GovernorEngineEnv& Get() {
    static GovernorEngineEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const MemSystemModel& model() const { return model_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  GovernorEngineEnv()
      : db_(*ssb::Generate({.scale_factor = 0.02, .seed = 11})),
        reference_(&db_) {}

  Database db_;
  MemSystemModel model_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig BaseConfig() {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.project_to_sf = 50.0;
  return config;
}

/// A standing per-socket PMEM ingest load (Fig. 11-style interference):
/// 18 writers per socket, far past the write knee the governor clamps
/// them to.
std::vector<TrafficRecord> IngestBackground() {
  std::vector<TrafficRecord> background;
  for (int socket = 0; socket < 2; ++socket) {
    TrafficRecord ingest;
    ingest.op = OpType::kWrite;
    ingest.pattern = Pattern::kSequentialIndividual;
    ingest.media = Media::kPmem;
    ingest.data_socket = socket;
    ingest.worker_socket = socket;
    ingest.bytes = 16ull * kGiB;
    ingest.access_size = 4 * kKiB;
    ingest.region_bytes = 64ull * kGiB;
    ingest.threads = 18;
    ingest.label = "ingest";
    background.push_back(ingest);
  }
  return background;
}

TEST(EngineGovernorTest, GovernorOffIsBitIdentical) {
  // EngineConfig::governor == nullptr must reproduce the pre-governor
  // engine exactly: same outputs, same modeled seconds.
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  SsbEngine plain(&env.db(), &env.model(), BaseConfig());
  ASSERT_TRUE(plain.Prepare().ok());
  SsbEngine again(&env.db(), &env.model(), BaseConfig());
  ASSERT_TRUE(again.Prepare().ok());
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_2, QueryId::kQ4_1}) {
    auto a = plain.Execute(query);
    auto b = again.Execute(query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a->output == b->output);
    EXPECT_DOUBLE_EQ(a->seconds, b->seconds);
  }
}

TEST(EngineGovernorTest, GovernedOutputsMatchReferenceForAllQueries) {
  // All 13 queries stay bit-identical to the reference with the governor
  // on and converged (staged probes hit the payload-identical replicas).
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  governor::BandwidthGovernor governor(&env.model());
  EngineConfig config = BaseConfig();
  config.governor = &governor;
  config.background = IngestBackground();
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());
  for (QueryId query : ssb::AllQueries()) {
    // Two warmups converge the hysteresis; the third run executes under
    // the committed actuators.
    for (int warmup = 0; warmup < 2; ++warmup) {
      ASSERT_TRUE(engine.Execute(query).ok());
    }
    auto run = engine.Execute(query);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->output == env.reference().Execute(query))
        << ssb::QueryName(query);
    EXPECT_GT(run->seconds, 0.0);
  }
  // The loop closed: one quantum per Execute.
  EXPECT_EQ(governor.decision().quantum, 13 * 3);
  // Under heavy ingest the governor actually actuated something.
  EXPECT_FALSE(governor.actuator_log().empty());
}

TEST(EngineGovernorTest, ActuatorLogIsDeterministicAcrossRuns) {
  // Acceptance: same seed + workload -> same actuator log, verified by
  // diffing two completely fresh governed runs.
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  std::vector<std::vector<std::string>> logs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    governor::BandwidthGovernor governor(&env.model());
    EngineConfig config = BaseConfig();
    config.governor = &governor;
    config.background = IngestBackground();
    SsbEngine engine(&env.db(), &env.model(), config);
    ASSERT_TRUE(engine.Prepare().ok());
    for (QueryId query : {QueryId::kQ1_1, QueryId::kQ3_2, QueryId::kQ4_1}) {
      for (int run = 0; run < 3; ++run) {
        ASSERT_TRUE(engine.Execute(query).ok());
      }
    }
    logs.push_back(governor.actuator_log());
  }
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(EngineGovernorTest, StagingEvictionFallsBackBitIdentically) {
  // With staging switched off nothing ever stages: the outputs must match
  // the staged run's outputs — the replica and the base map carry
  // identical payloads.
  GovernorEngineEnv& env = GovernorEngineEnv::Get();

  governor::BandwidthGovernor staged_governor(&env.model());
  EngineConfig staged_config = BaseConfig();
  staged_config.governor = &staged_governor;
  staged_config.background = IngestBackground();
  SsbEngine staged(&env.db(), &env.model(), staged_config);
  ASSERT_TRUE(staged.Prepare().ok());

  governor::GovernorConfig evicted_cfg;
  evicted_cfg.stage_structures = false;
  governor::BandwidthGovernor evicted_governor(&env.model(), evicted_cfg);
  EngineConfig evicted_config = staged_config;
  evicted_config.governor = &evicted_governor;
  SsbEngine evicted(&env.db(), &env.model(), evicted_config);
  ASSERT_TRUE(evicted.Prepare().ok());

  for (QueryId query : {QueryId::kQ2_1, QueryId::kQ3_1, QueryId::kQ4_2}) {
    for (int warmup = 0; warmup < 2; ++warmup) {
      ASSERT_TRUE(staged.Execute(query).ok());
      ASSERT_TRUE(evicted.Execute(query).ok());
    }
    auto with_staging = staged.Execute(query);
    auto without = evicted.Execute(query);
    ASSERT_TRUE(with_staging.ok() && without.ok());
    EXPECT_TRUE(with_staging->output == without->output)
        << ssb::QueryName(query);
    EXPECT_TRUE(with_staging->output == env.reference().Execute(query));
  }
  // The converged decisions differ only in staging.
  EXPECT_FALSE(staged_governor.decision().staged.empty());
  EXPECT_TRUE(evicted_governor.decision().staged.empty());
}

TEST(EngineGovernorTest, WriterClampCommitsOnAGovernedRun) {
  // Under 18 standing PMEM writers per socket the governor clamps writers
  // to the write knee within BP2's 4-6. Staging is off, so the clamp is
  // the one actuator that moves between runs: once it commits, every PMEM
  // write the query makes runs at the clamped count, and the run is no
  // slower than the last one before the commit and faster than the
  // ungoverned engine under the same background.
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  governor::GovernorConfig unstaged;
  unstaged.stage_structures = false;
  governor::BandwidthGovernor governor(&env.model(), unstaged);
  const int clamped =
      std::clamp(governor.WriteKnee().threads,
                 BestPracticesAdvisor::kMinWriteThreads,
                 BestPracticesAdvisor::kMaxWriteThreads);
  EXPECT_EQ(clamped, 4);  // the default model's write knee
  ASSERT_NE(governor.decision().write_threads, clamped);

  EngineConfig config = BaseConfig();
  config.background = IngestBackground();
  SsbEngine ungoverned(&env.db(), &env.model(), config);
  ASSERT_TRUE(ungoverned.Prepare().ok());
  config.governor = &governor;
  SsbEngine governed(&env.db(), &env.model(), config);
  ASSERT_TRUE(governed.Prepare().ok());

  // The thread counts of a run's PMEM write records.
  auto pmem_writers = [](const SsbEngine::QueryRun& run) {
    std::set<int> threads;
    for (const TrafficRecord& record : run.profile.records()) {
      if (record.op == OpType::kWrite && record.media == Media::kPmem) {
        threads.insert(record.threads);
      }
    }
    return threads;
  };
  constexpr QueryId kQuery = QueryId::kQ2_1;
  Result<SsbEngine::QueryRun> before = governed.Execute(kQuery);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  for (int quantum = 1; quantum < 2 * governor::kHysteresisQuanta &&
                        governor.decision().write_threads != clamped;
       ++quantum) {
    before = governed.Execute(kQuery);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
  }
  ASSERT_EQ(governor.decision().write_threads, clamped);
  EXPECT_EQ(pmem_writers(*before),
            std::set<int>{BestPracticesAdvisor::kMaxWriteThreads});

  Result<SsbEngine::QueryRun> after = governed.Execute(kQuery);
  Result<SsbEngine::QueryRun> plain = ungoverned.Execute(kQuery);
  ASSERT_TRUE(after.ok() && plain.ok());
  EXPECT_EQ(pmem_writers(*after), std::set<int>{clamped});
  EXPECT_TRUE(after->output == before->output);
  EXPECT_LE(after->seconds, before->seconds);
  EXPECT_LT(after->seconds, plain->seconds);
}

TEST(EngineGovernorTest, TornBoundariesChargeOneLinePerStoredColumn) {
  // With shaping off every torn morsel boundary is charged one 256 B
  // XPLine re-read per stored column the scan reads: the row image stores
  // one, the raw and the encoded columns store each of Q1.1's four. A
  // boundary tears unless it falls on the layout's quantum: 2 rows of
  // 128 B, 64 raw 4 B values, one 32-value code frame.
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  ASSERT_EQ(ssb::ScanColumnsFor(QueryId::kQ1_1).size(), 4u);
  constexpr uint64_t kMorselTuples = 1001;
  Result<std::vector<SocketPartition>> partitions =
      Partitioner(env.model().config().topology)
          .Partition(env.db().lineorder.size(), /*workers_per_socket=*/18);
  ASSERT_TRUE(partitions.ok());
  const MorselPlan plan = Partitioner::ToMorsels(*partitions, kMorselTuples);
  struct Layout {
    bool columnar;
    bool encoding;
    uint64_t quantum;
    uint64_t stored_columns;
  };
  for (const Layout& layout : {Layout{false, false, 2, 1},
                               Layout{true, false, 64, 4},
                               Layout{true, true, 32, 4}}) {
    governor::GovernorConfig unshaped;
    unshaped.shape_morsels = false;
    governor::BandwidthGovernor governor(&env.model(), unshaped);
    EngineConfig config = BaseConfig();
    config.project_to_sf = 0.0;
    config.morsel_tuples = kMorselTuples;
    config.columnar = layout.columnar;
    config.encoding = layout.encoding;
    config.governor = &governor;
    SsbEngine engine(&env.db(), &env.model(), config);
    ASSERT_TRUE(engine.Prepare().ok());
    auto run = engine.Execute(QueryId::kQ1_1);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const uint64_t torn = TornBoundaries(plan, layout.quantum);
    EXPECT_GT(torn, 0u) << layout.quantum;
    uint64_t charged = 0;
    for (const TrafficRecord& record : run->profile.records()) {
      if (record.label == "scan-xpline") charged += record.bytes;
    }
    EXPECT_EQ(charged, torn * kXPLineBytes * layout.stored_columns)
        << "quantum " << layout.quantum;
  }
}

// --- Settling on perfbench `short`'s shape ------------------------------------

constexpr int kSettleBurst = 3;
constexpr int kSettleRounds = 3;

/// The governor's actuator log after `short`'s schedule on a governed
/// columnar engine with a 4-thread pool: the 13 queries round-robin in
/// bursts of kSettleBurst, for kSettleRounds rounds, under `background`.
std::vector<std::string> ShortShapeLog(std::vector<TrafficRecord> background) {
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  governor::BandwidthGovernor governor(&env.model());
  EngineConfig config = BaseConfig();
  config.columnar = true;
  config.threads = 4;
  config.governor = &governor;
  config.background = std::move(background);
  SsbEngine engine(&env.db(), &env.model(), config);
  EXPECT_TRUE(engine.Prepare().ok());
  for (int round = 0; round < kSettleRounds; ++round) {
    for (QueryId query : ssb::AllQueries()) {
      for (int run = 0; run < kSettleBurst; ++run) {
        auto result = engine.Execute(query);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (result.ok()) {
          EXPECT_TRUE(result->output == env.reference().Execute(query))
              << ssb::QueryName(query);
        }
      }
    }
  }
  EXPECT_EQ(governor.decision().quantum,
            kSettleRounds * kSettleBurst * ssb::kNumQueries);
  return governor.actuator_log();
}

/// Staging settles within the first round (one quantum per Execute): no
/// `commit staged` line lands after it, and the committed sets never
/// revisit one they left within 4 commits (a stage/evict flap).
void ExpectStagingSettles(const std::vector<std::string>& log) {
  constexpr int kRoundQuanta = kSettleBurst * ssb::kNumQueries;
  std::vector<std::string> sets = {"-"};
  for (const std::string& line : log) {
    const size_t at = line.find(" commit staged ");
    if (at == std::string::npos) continue;
    int quantum = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "q=%d", &quantum), 1) << line;
    EXPECT_LE(quantum, kRoundQuanta) << line;
    sets.push_back(line.substr(line.find("->", at) + 2));
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t period = 1; period <= 4 && i + period < sets.size();
         ++period) {
      EXPECT_NE(sets[i], sets[i + period])
          << "staged set " << sets[i] << " recurs after " << period
          << " commits";
    }
  }
}

/// The whole actuator log of either schedule, pinned line for line so a
/// change to any governor decision shows here: the writer clamp and the
/// staged set commit within round one and hold. The standing ingest
/// changes no decision on this schedule.
std::vector<std::string> GoldenShortShapeLog() {
  return {
      "q=2 commit writers 6->4",
      "q=2 commit staged -->date+intermediates",
      "q=11 commit staged date+intermediates->date+intermediates+part+supplier",
      "q=20 commit staged date+intermediates+part+supplier->"
      "customer+date+intermediates+part+supplier",
  };
}

TEST(EngineGovernorSettle, ShortShapeSettlesInTheFirstRound) {
  const std::vector<std::string> log = ShortShapeLog({});
  ExpectStagingSettles(log);
  EXPECT_EQ(log, GoldenShortShapeLog());
}

TEST(EngineGovernorSettle, ShortShapeSettlesUnderIngest) {
  const std::vector<std::string> log = ShortShapeLog(IngestBackground());
  ExpectStagingSettles(log);
  EXPECT_EQ(log, GoldenShortShapeLog());
}

// --- Concurrency (TSan-covered in CI) ---------------------------------------

// Host threads share one governed pooled engine. Each Execute snapshots
// one decision while the other threads' Observe calls commit the next, so
// a run's actuation is never torn: every output matches the reference,
// and the governor counts each Execute as exactly one quantum.
TEST(EngineGovernorConcurrency, ParallelExecutesMatchReference) {
  GovernorEngineEnv& env = GovernorEngineEnv::Get();
  governor::BandwidthGovernor governor(&env.model());
  EngineConfig config = BaseConfig();
  config.threads = 4;
  config.morsel_tuples = 4096;
  config.governor = &governor;
  config.background = IngestBackground();
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());

  const std::vector<QueryId>& queries = ssb::AllQueries();
  std::vector<ssb::QueryOutput> expected;
  for (QueryId query : queries) {
    expected.push_back(env.reference().Execute(query));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto run = engine.Execute(queries[q]);
          if (!run.ok() || !(run->output == expected[q])) ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }

  const int executes = kThreads * kRounds * static_cast<int>(queries.size());
  EXPECT_EQ(governor.decision().quantum, executes);
}

}  // namespace
}  // namespace pmemolap
