// Tiering <-> engine integration: EngineConfig::tiering off is the
// pre-tiering engine exactly (and an all-PMEM manager reproduces it to
// the last modeled second), cold extents charge SSD scan records, scan
// windows clamp every executor identically, per-morsel touches close the
// loop, and migration traffic rides as background load.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../tiering/advance_lines.h"
#include "engine/engine.h"
#include "ssb/reference.h"
#include "tiering/tier_manager.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

class TieringEngineEnv {
 public:
  static TieringEngineEnv& Get() {
    static TieringEngineEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const MemSystemModel& model() const { return model_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }
  uint64_t table_bytes() const {
    return db_.lineorder.size() * sizeof(ssb::LineorderRow);
  }

 private:
  TieringEngineEnv()
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
  config.columnar = true;
  config.threads = 36;
  config.project_to_sf = 50.0;
  return config;
}

tiering::TieringConfig ManagerConfig(double dram_fraction,
                                     double pmem_fraction) {
  TieringEngineEnv& env = TieringEngineEnv::Get();
  tiering::TieringConfig config;
  config.extent_tuples = 2048;
  config.dram_budget_bytes = static_cast<uint64_t>(
      static_cast<double>(env.table_bytes()) * dram_fraction);
  config.pmem_budget_bytes = static_cast<uint64_t>(
      static_cast<double>(env.table_bytes()) * pmem_fraction);
  return config;
}

TEST(EngineTieringTest, PrepareRejectsIncompatibleModes) {
  TieringEngineEnv& env = TieringEngineEnv::Get();
  tiering::TierManager manager(&env.model(), ManagerConfig(0.1, 0.5));

  FaultDomain domain;  // validation fires before the domain is touched
  EngineConfig faulted = BaseConfig();
  faulted.columnar = false;
  faulted.tiering = &manager;
  faulted.fault = &domain;
  SsbEngine fault_engine(&env.db(), &env.model(), faulted);
  EXPECT_FALSE(fault_engine.Prepare().ok());

  EngineConfig unmatched = BaseConfig();
  unmatched.tiering = &manager;
  unmatched.numa_aware_placement = false;
  SsbEngine unmatched_engine(&env.db(), &env.model(), unmatched);
  EXPECT_FALSE(unmatched_engine.Prepare().ok());
}

TEST(EngineTieringTest, AllPmemManagerReproducesTieringOffExactly) {
  // The acceptance witness: a manager whose PMEM budget holds the whole
  // table degenerates to a single PMEM scan record, so modeled seconds
  // equal the tiering == nullptr engine to the last bit.
  TieringEngineEnv& env = TieringEngineEnv::Get();
  SsbEngine off(&env.db(), &env.model(), BaseConfig());
  ASSERT_TRUE(off.Prepare().ok());

  tiering::TierManager manager(&env.model(), ManagerConfig(0.0, 2.0));
  EngineConfig config = BaseConfig();
  config.tiering = &manager;
  SsbEngine on(&env.db(), &env.model(), config);
  ASSERT_TRUE(on.Prepare().ok());

  for (QueryId query : ssb::AllQueries()) {
    auto a = off.Execute(query);
    auto b = on.Execute(query);
    ASSERT_TRUE(a.ok() && b.ok()) << ssb::QueryName(query);
    EXPECT_TRUE(a->output == b->output) << ssb::QueryName(query);
    EXPECT_DOUBLE_EQ(a->seconds, b->seconds) << ssb::QueryName(query);
  }
}

TEST(EngineTieringTest, ColdExtentsChargeSsdScanRecords) {
  TieringEngineEnv& env = TieringEngineEnv::Get();
  tiering::TierManager manager(&env.model(), ManagerConfig(0.0, 0.4));
  EngineConfig config = BaseConfig();
  config.tiering = &manager;
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());

  auto run = engine.Execute(QueryId::kQ1_1);
  ASSERT_TRUE(run.ok());
  // 40% of the table is PMEM-resident, the rest scans off SSD: both
  // record kinds appear and their bytes sum to the full scan.
  uint64_t pmem_bytes = 0;
  uint64_t ssd_bytes = 0;
  for (const TrafficRecord& record : run->profile.records()) {
    if (record.label == "scan") pmem_bytes += record.bytes;
    if (record.label == "scan-ssd") {
      EXPECT_EQ(record.media, Media::kSsd);
      ssd_bytes += record.bytes;
    }
  }
  EXPECT_GT(pmem_bytes, 0u);
  EXPECT_GT(ssd_bytes, 0u);
  // ~60% of scanned bytes are cold (extent rounding allows slack).
  double ssd_share = static_cast<double>(ssd_bytes) /
                     static_cast<double>(pmem_bytes + ssd_bytes);
  EXPECT_NEAR(ssd_share, 0.6, 0.05);
  // An SSD-cold scan is priced slower than the all-PMEM scan.
  SsbEngine off(&env.db(), &env.model(), BaseConfig());
  ASSERT_TRUE(off.Prepare().ok());
  auto fast = off.Execute(QueryId::kQ1_1);
  ASSERT_TRUE(fast.ok());
  EXPECT_GT(run->seconds, fast->seconds);
  // Results stay bit-identical: placement prices traffic, never changes
  // what the kernels compute.
  EXPECT_TRUE(run->output == fast->output);
}

TEST(EngineTieringTest, ScanWindowClampsEveryExecutorIdentically) {
  TieringEngineEnv& env = TieringEngineEnv::Get();
  const uint64_t rows = env.db().lineorder.size();
  // A window across both sockets' shares, and socket 1's whole share.
  const TupleRange windows[2] = {{4096, 4096 + 65536}, {rows / 2, rows}};
  for (const TupleRange& window : windows) {
    SCOPED_TRACE(window.begin);
    qos::QueryOptions options;
    options.scan_begin = window.begin;
    options.scan_end = window.end;

    ssb::QueryOutput outputs[2];
    double seconds[2] = {0, 0};
    const ExecutorKind kinds[2] = {ExecutorKind::kSerial,
                                   ExecutorKind::kMorselStealing};
    for (int i = 0; i < 2; ++i) {
      EngineConfig config = BaseConfig();
      config.executor = kinds[i];
      SsbEngine engine(&env.db(), &env.model(), config);
      ASSERT_TRUE(engine.Prepare().ok());
      auto run = engine.Execute(QueryId::kQ2_1, options);
      ASSERT_TRUE(run.ok());
      outputs[i] = run->output;
      seconds[i] = run->seconds;
      EXPECT_EQ(run->cpu.tuples_scanned, window.size());
      if (window.begin < rows / 2) continue;
      // Probes are priced on the socket whose rows produced them, however
      // the morsels were stolen.
      int probe_records = 0;
      for (const TrafficRecord& record : run->profile.records()) {
        if (record.label.rfind("probe-", 0) != 0) continue;
        ++probe_records;
        EXPECT_EQ(record.worker_socket, 1) << record.label;
      }
      EXPECT_GT(probe_records, 0);
    }
    EXPECT_TRUE(outputs[0] == outputs[1]);
    EXPECT_DOUBLE_EQ(seconds[0], seconds[1]);
  }

  // A full-window run still matches the reference executor (the default
  // window is the whole table).
  EngineConfig config = BaseConfig();
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());
  auto full = engine.Execute(QueryId::kQ2_1, qos::QueryOptions());
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->output == env.reference().Execute(QueryId::kQ2_1));
}

TEST(EngineTieringTest, RepeatedHotWindowPromotesAndCarriesMigrations) {
  // Close the loop end to end: a hot window over initially-SSD extents
  // heats them through per-morsel touches, the loop promotes them, the
  // migration quantum carries priced background traffic, and the hot
  // query gets faster once resident.
  TieringEngineEnv& env = TieringEngineEnv::Get();
  tiering::TierManager manager(&env.model(), ManagerConfig(0.10, 0.40));
  EngineConfig config = BaseConfig();
  config.tiering = &manager;
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());

  const uint64_t rows = env.db().lineorder.size();
  qos::QueryOptions hot;
  hot.scan_begin = rows - 16384;  // the address-order tail: cold at attach
  hot.scan_end = rows;

  auto first = engine.Execute(QueryId::kQ1_1, hot);
  ASSERT_TRUE(first.ok());
  double cold_seconds = first->seconds;
  bool saw_migration = false;
  for (int q = 0; q < 6; ++q) {
    auto run = engine.Execute(QueryId::kQ1_1, hot);
    ASSERT_TRUE(run.ok());
    saw_migration |= !manager.standing_traffic().empty();
  }
  auto warm = engine.Execute(QueryId::kQ1_1, hot);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(saw_migration);
  // One placement quantum per Execute.
  EXPECT_EQ(tiering::AdvanceLines(manager), 8);
  EXPECT_LT(warm->seconds, cold_seconds);
  EXPECT_TRUE(warm->output == first->output);
  // The hot extents are DRAM/PMEM-resident now.
  tiering::TieringSnapshot snapshot = manager.snapshot();
  tiering::TieringSnapshot::TupleShare share =
      snapshot.SplitTuples(hot.scan_begin, hot.scan_end);
  EXPECT_EQ(share.ssd, 0u);
}

}  // namespace
}  // namespace pmemolap
