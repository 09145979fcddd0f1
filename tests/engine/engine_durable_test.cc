// End-to-end durable ingest: the engine fed epoch-by-epoch through a
// crash-consistent DurableTable must answer every SSB query bit-identical
// to the reference executor (at epoch 0 too, as over an empty table), keep
// pinned snapshots stable while ingest advances (also while the pool
// executes concurrently with Ingest), surface a modeled crash as
// Unavailable until Recover() runs (pausing admission while it verifies),
// reject rows whose keys join nothing, and price standing ingest traffic
// into query runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "durability/crash_injector.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database for the durable end-to-end tests (dbgen at sf 0.01).
class DurableEnv {
 public:
  static DurableEnv& Get() {
    static DurableEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  DurableEnv() : db_(*ssb::Generate({.scale_factor = 0.01, .seed = 11})) {}

  Database db_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig DurableConfig(DurableTable* table) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 8;
  config.durable = table;
  return config;
}

/// Ingests db.lineorder in `epochs` prefix-order batches through the
/// engine; returns the number of Appends that were acknowledged.
uint64_t IngestInEpochs(SsbEngine* engine, const Database& db, int epochs) {
  const uint64_t total = db.lineorder.size();
  const uint64_t batch = (total + epochs - 1) / epochs;
  uint64_t acked = 0;
  for (uint64_t offset = 0; offset < total; offset += batch) {
    uint64_t count = std::min(batch, total - offset);
    if (engine->Ingest(db.lineorder.data() + offset, count).ok()) ++acked;
  }
  return acked;
}

TEST(EngineDurableTest, AllQueriesBitIdenticalAfterFullIngest) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 6u);
  EXPECT_EQ((*table)->committed_epoch(), 6u);

  for (QueryId query : ssb::AllQueries()) {
    Result<SsbEngine::QueryRun> run = engine.Execute(query);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(query))
        << ssb::QueryName(query) << " must be bit-identical over the"
        << " durable table";
    EXPECT_GT(run->seconds, 0.0);
  }
}

TEST(EngineDurableTest, EpochZeroAnswersTheEmptyTableReference) {
  DurableEnv& env = DurableEnv::Get();
  Database empty = env.db();
  empty.lineorder.clear();
  const ssb::ReferenceExecutor reference(&empty);
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());
  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());

  // A fresh table reads at committed epoch 0; after ingest, a query
  // pinned to epoch 0 still sees no row.
  auto expect_empty = [&](const qos::QueryOptions& options) {
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> run = engine.Execute(query, options);
      ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output, reference.Execute(query))
          << ssb::QueryName(query);
    }
  };
  expect_empty(qos::QueryOptions());
  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 2), 2u);
  qos::QueryOptions epoch_zero;
  epoch_zero.snapshot_epoch = 0;
  expect_empty(epoch_zero);
}

TEST(EngineDurableTest, PinnedSnapshotIsStableWhileIngestAdvances) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());

  const uint64_t total = env.db().lineorder.size();
  const uint64_t half = total / 2;
  ASSERT_TRUE(engine.Ingest(env.db().lineorder.data(), half).ok());
  const uint64_t pinned = (*table)->committed_epoch();
  const QueryId query = ssb::AllQueries().front();

  qos::QueryOptions at_pin;
  at_pin.snapshot_epoch = pinned;
  Result<SsbEngine::QueryRun> before = engine.Execute(query, at_pin);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Epoch 2 lands the rest of the table; the pinned snapshot must not
  // see any of it, and the latest snapshot must now match the reference.
  ASSERT_TRUE(
      engine.Ingest(env.db().lineorder.data() + half, total - half).ok());
  Result<SsbEngine::QueryRun> after = engine.Execute(query, at_pin);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->output, after->output)
      << "a pinned snapshot may not drift as later epochs commit";

  Result<SsbEngine::QueryRun> latest = engine.Execute(query);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->output, env.reference().Execute(query));

  // An uncommitted epoch is not a valid snapshot.
  qos::QueryOptions future;
  future.snapshot_epoch = (*table)->committed_epoch() + 1;
  EXPECT_EQ(engine.Execute(query, future).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineDurableTest, CrashMidIngestRecoversUnderAdmission) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  // Epoch 4's Append spans boundaries 12..15 (4 per ntstore append);
  // 14 is its commit-record ntstore — the epoch dies uncommitted.
  CrashInjector crash(/*seed=*/0xD15C, CrashPlan{/*boundary_index=*/14});
  auto table =
      DurableTable::Create(&space, &crash, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  qos::AdmissionController gate;
  EngineConfig config = DurableConfig(table->get());
  config.admission = &gate;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 3u);
  ASSERT_TRUE(crash.crashed());

  // Until recovery runs, queries admit but fail at the first snapshot
  // read — torn state is never served.
  const QueryId query = ssb::AllQueries().front();
  EXPECT_EQ(engine.Execute(query).status().code(), StatusCode::kUnavailable);

  Result<RecoveryStats> stats = engine.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 3u);
  EXPECT_FALSE(gate.recovery_paused())
      << "the admission pause must lift before Recover returns";

  // Resume ingest for the lost suffix, then every query is bit-identical.
  const uint64_t total = env.db().lineorder.size();
  const uint64_t batch = (total + 5) / 6;
  for (uint64_t offset = 3 * batch; offset < total; offset += batch) {
    uint64_t count = std::min(batch, total - offset);
    ASSERT_TRUE(engine.Ingest(env.db().lineorder.data() + offset, count).ok());
  }
  EXPECT_EQ((*table)->committed_epoch(), 6u);
  for (QueryId q : ssb::AllQueries()) {
    Result<SsbEngine::QueryRun> run = engine.Execute(q);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(q) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(q)) << ssb::QueryName(q);
  }
}

TEST(EngineDurableTest, StandingIngestTrafficPricesIntoQueries) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 6u);

  // Right after ingest the table's pending ingest writes ride along as
  // background traffic; draining them returns queries to solo pricing.
  ASSERT_FALSE((*table)->standing_traffic().empty());
  const QueryId query = ssb::AllQueries().front();
  Result<SsbEngine::QueryRun> contended = engine.Execute(query);
  ASSERT_TRUE(contended.ok());
  (*table)->DrainIngestTraffic();
  ASSERT_TRUE((*table)->standing_traffic().empty());
  Result<SsbEngine::QueryRun> solo = engine.Execute(query);
  ASSERT_TRUE(solo.ok());
  EXPECT_GT(contended->seconds, solo->seconds)
      << "ingest writes must show up in the query's modeled runtime";
  EXPECT_EQ(contended->output, solo->output);
}

// A lineorder row whose key matches no dimension row would index the
// kernels' dense key maps out of range at the next query: Ingest rejects
// the batch before anything reaches the log.
TEST(EngineDurableTest, IngestRejectsDanglingForeignKeys) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());
  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());

  for (int32_t ssb::LineorderRow::*key :
       {&ssb::LineorderRow::orderdate, &ssb::LineorderRow::custkey,
        &ssb::LineorderRow::suppkey, &ssb::LineorderRow::partkey}) {
    std::vector<ssb::LineorderRow> rows(env.db().lineorder.begin(),
                                        env.db().lineorder.begin() + 10);
    rows[5].*key = 1 << 30;
    Result<uint64_t> epoch = engine.Ingest(rows.data(), rows.size());
    EXPECT_EQ(epoch.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*table)->committed_epoch(), 0u);
  EXPECT_TRUE((*table)->standing_traffic().empty())
      << "a rejected batch must not be logged";
  Result<SsbEngine::QueryRun> run = engine.Execute(QueryId::kQ3_1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

// Morsel-pool queries pinned to epoch k run while another thread commits
// epochs k+1..n through the same engine: every result equals the
// reference over the k-epoch prefix, and the durability oracle stays
// clean.
TEST(EngineDurableConcurrencyTest, PinnedPoolQueriesRunWhileIngestCommits) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());
  EngineConfig config = DurableConfig(table->get());
  config.threads = 4;
  config.executor = ExecutorKind::kMorselStealing;
  config.morsel_tuples = 4096;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  constexpr int kEpochs = 8;
  constexpr int kPinned = 3;
  const uint64_t total = env.db().lineorder.size();
  const uint64_t batch = (total + kEpochs - 1) / kEpochs;
  for (int e = 0; e < kPinned; ++e) {
    ASSERT_TRUE(
        engine.Ingest(env.db().lineorder.data() + e * batch, batch).ok());
  }
  Database prefix = env.db();
  prefix.lineorder.resize(kPinned * batch);
  const ssb::ReferenceExecutor prefix_reference(&prefix);
  qos::QueryOptions at_pin;
  at_pin.snapshot_epoch = (*table)->committed_epoch();
  ASSERT_EQ(at_pin.snapshot_epoch, static_cast<uint64_t>(kPinned));

  std::vector<Status> ingested;
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (uint64_t offset = kPinned * batch; offset < total; offset += batch) {
      ingested.push_back(
          engine
              .Ingest(env.db().lineorder.data() + offset,
                      std::min(batch, total - offset))
              .status());
    }
    done.store(true);
  });
  // Query until ingest has finished, and for at least two rounds.
  for (int round = 0; round < 2 || !done.load(); ++round) {
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> run = engine.Execute(query, at_pin);
      if (!run.ok()) {
        ADD_FAILURE() << ssb::QueryName(query) << ": "
                      << run.status().ToString();
        continue;
      }
      EXPECT_EQ(run->output, prefix_reference.Execute(query))
          << ssb::QueryName(query) << " round " << round;
    }
  }
  ingest.join();

  ASSERT_EQ(ingested.size(), static_cast<size_t>(kEpochs - kPinned));
  for (const Status& status : ingested) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ((*table)->committed_epoch(), static_cast<uint64_t>(kEpochs));
  EXPECT_TRUE((*table)->order_checker().clean());
  Result<SsbEngine::QueryRun> latest = engine.Execute(QueryId::kQ4_1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->output, env.reference().Execute(QueryId::kQ4_1));
}

TEST(EngineDurableTest, DurableAndFaultModesAreMutuallyExclusive) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  FaultInjector injector(FaultSpec::Healthy());
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config = DurableConfig(table->get());
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  EXPECT_EQ(engine.Prepare().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDurableTest, PrepareRejectsUndersizedDurableCapacity) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  DurableTable::Options options;
  options.capacity_bytes = 1 * kMiB;  // < 60000 rows * 128 B
  auto table = DurableTable::Create(&space, nullptr, options);
  ASSERT_TRUE(table.ok());
  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  EXPECT_EQ(engine.Prepare().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDurableTest, IngestAndRecoverRequireDurableMode) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.threads = 8;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(engine.Ingest(env.db().lineorder.data(), 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Recover().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pmemolap
