#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database + model for all engine tests (dbgen at sf 0.02).
class EngineEnv {
 public:
  static EngineEnv& Get() {
    static EngineEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const MemSystemModel& model() const { return model_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  EngineEnv()
      : db_(*ssb::Generate({.scale_factor = 0.02, .seed = 11})),
        reference_(&db_) {}

  Database db_;
  MemSystemModel model_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig AwareConfig() {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.project_to_sf = 100.0;
  return config;
}

EngineConfig UnawareConfig() {
  EngineConfig config;
  config.mode = EngineMode::kUnaware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.use_both_sockets = false;
  config.pinning = PinningPolicy::kNumaRegion;
  config.project_to_sf = 50.0;
  return config;
}

TEST(EngineTest, ExecuteRequiresPrepare) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), AwareConfig());
  auto result = engine.Execute(QueryId::kQ1_1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ActualScaleFactor) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), AwareConfig());
  EXPECT_NEAR(engine.ActualScaleFactor(), 0.02, 1e-9);
}

/// Correctness: both engine modes must produce exactly the reference
/// results for every query.
class EngineCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<QueryId, EngineMode>> {};

TEST_P(EngineCorrectnessTest, MatchesReference) {
  auto [query, mode] = GetParam();
  EngineEnv& env = EngineEnv::Get();
  EngineConfig config =
      mode == EngineMode::kPmemAware ? AwareConfig() : UnawareConfig();
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = engine.Execute(query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ssb::QueryOutput expected = env.reference().Execute(query);
  EXPECT_TRUE(run->output == expected) << ssb::QueryName(query);
  EXPECT_GT(run->seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesBothModes, EngineCorrectnessTest,
    ::testing::Combine(::testing::ValuesIn(ssb::AllQueries()),
                       ::testing::Values(EngineMode::kPmemAware,
                                         EngineMode::kUnaware)),
    [](const auto& info) {
      std::string name =
          ssb::QueryName(std::get<0>(info.param)) + "_" +
          (std::get<1>(info.param) == EngineMode::kPmemAware ? "Aware"
                                                             : "Unaware");
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(EngineTest, SeedsDoNotBreakCorrectness) {
  for (uint64_t seed : {1ull, 99ull}) {
    auto db = ssb::Generate({.scale_factor = 0.01, .seed = seed});
    ASSERT_TRUE(db.ok());
    ssb::ReferenceExecutor reference(&db.value());
    MemSystemModel model;
    SsbEngine engine(&db.value(), &model, AwareConfig());
    ASSERT_TRUE(engine.Prepare().ok());
    for (QueryId query : {QueryId::kQ1_2, QueryId::kQ2_2, QueryId::kQ3_2,
                          QueryId::kQ4_2}) {
      auto run = engine.Execute(query);
      ASSERT_TRUE(run.ok());
      EXPECT_TRUE(run->output == reference.Execute(query))
          << "seed=" << seed << " " << ssb::QueryName(query);
    }
  }
}

TEST(EngineTest, ProfileContainsScanAndProbes) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), AwareConfig());
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = engine.Execute(QueryId::kQ2_1);
  ASSERT_TRUE(run.ok());
  bool has_scan = false;
  bool has_part_probe = false;
  bool has_supplier_probe = false;
  for (const TrafficRecord& record : run->profile.records()) {
    if (record.label == "scan") has_scan = true;
    if (record.label == "probe-part") has_part_probe = true;
    if (record.label == "probe-supplier") has_supplier_probe = true;
  }
  EXPECT_TRUE(has_scan);
  EXPECT_TRUE(has_part_probe);
  EXPECT_TRUE(has_supplier_probe);
  // The scan covers the whole 128 B-aligned fact table.
  EXPECT_EQ(run->profile.TotalBytes(OpType::kRead) > env.db().FactBytes(),
            true);
}

TEST(EngineTest, ProbeOrderShortCircuits) {
  // Q2.1 probes part on every tuple but supplier only on category matches
  // (1/25 of tuples).
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), AwareConfig());
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = engine.Execute(QueryId::kQ2_1);
  ASSERT_TRUE(run.ok());
  uint64_t part_bytes = 0;
  uint64_t supplier_bytes = 0;
  for (const TrafficRecord& record : run->profile.records()) {
    if (record.label == "probe-part") part_bytes += record.bytes;
    if (record.label == "probe-supplier") supplier_bytes += record.bytes;
  }
  EXPECT_GT(part_bytes, supplier_bytes * 10);
}

TEST(EngineTest, UnawareModeEmitsMaterializationTraffic) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine unaware(&env.db(), &env.model(), UnawareConfig());
  ASSERT_TRUE(unaware.Prepare().ok());
  auto run = unaware.Execute(QueryId::kQ2_1);
  ASSERT_TRUE(run.ok());
  bool has_materialize = false;
  for (const TrafficRecord& record : run->profile.records()) {
    if (record.label.starts_with("materialize-")) has_materialize = true;
  }
  EXPECT_TRUE(has_materialize);

  SsbEngine aware(&env.db(), &env.model(), AwareConfig());
  ASSERT_TRUE(aware.Prepare().ok());
  auto aware_run = aware.Execute(QueryId::kQ2_1);
  ASSERT_TRUE(aware_run.ok());
  for (const TrafficRecord& record : aware_run->profile.records()) {
    EXPECT_FALSE(record.label.starts_with("materialize-")) << record.label;
  }
}

TEST(EngineTest, AwareModeStripesAcrossSockets) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), AwareConfig());
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = engine.Execute(QueryId::kQ1_1);
  ASSERT_TRUE(run.ok());
  bool socket0 = false;
  bool socket1 = false;
  for (const TrafficRecord& record : run->profile.records()) {
    if (record.label != "scan") continue;
    if (record.data_socket == 0) socket0 = true;
    if (record.data_socket == 1) socket1 = true;
  }
  EXPECT_TRUE(socket0);
  EXPECT_TRUE(socket1);
}

TEST(EngineTest, UnawareModeStaysOnOneSocket) {
  EngineEnv& env = EngineEnv::Get();
  SsbEngine engine(&env.db(), &env.model(), UnawareConfig());
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = engine.Execute(QueryId::kQ1_1);
  ASSERT_TRUE(run.ok());
  for (const TrafficRecord& record : run->profile.records()) {
    EXPECT_EQ(record.data_socket, 0) << record.label;
  }
}

TEST(EngineTest, PmemSlowerThanDram) {
  EngineEnv& env = EngineEnv::Get();
  for (EngineMode mode : {EngineMode::kPmemAware, EngineMode::kUnaware}) {
    EngineConfig pmem_config =
        mode == EngineMode::kPmemAware ? AwareConfig() : UnawareConfig();
    EngineConfig dram_config = pmem_config;
    dram_config.media = Media::kDram;
    SsbEngine pmem(&env.db(), &env.model(), pmem_config);
    SsbEngine dram(&env.db(), &env.model(), dram_config);
    ASSERT_TRUE(pmem.Prepare().ok());
    ASSERT_TRUE(dram.Prepare().ok());
    for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_1, QueryId::kQ4_1}) {
      double pmem_s = pmem.Execute(query)->seconds;
      double dram_s = dram.Execute(query)->seconds;
      EXPECT_GT(pmem_s, dram_s) << ssb::QueryName(query);
    }
  }
}

TEST(EngineTest, MoreThreadsAreFaster) {
  EngineEnv& env = EngineEnv::Get();
  EngineConfig one = AwareConfig();
  one.threads = 1;
  one.use_both_sockets = false;
  EngineConfig eighteen = AwareConfig();
  eighteen.threads = 18;
  eighteen.use_both_sockets = false;
  SsbEngine slow(&env.db(), &env.model(), one);
  SsbEngine fast(&env.db(), &env.model(), eighteen);
  ASSERT_TRUE(slow.Prepare().ok());
  ASSERT_TRUE(fast.Prepare().ok());
  double slow_s = slow.Execute(QueryId::kQ2_1)->seconds;
  double fast_s = fast.Execute(QueryId::kQ2_1)->seconds;
  EXPECT_GT(slow_s / fast_s, 8.0);
}

TEST(EngineTest, ProjectionScalesSeconds) {
  EngineEnv& env = EngineEnv::Get();
  EngineConfig sf100 = AwareConfig();
  EngineConfig sf50 = AwareConfig();
  sf50.project_to_sf = 50.0;
  SsbEngine big(&env.db(), &env.model(), sf100);
  SsbEngine small(&env.db(), &env.model(), sf50);
  ASSERT_TRUE(big.Prepare().ok());
  ASSERT_TRUE(small.Prepare().ok());
  double big_s = big.Execute(QueryId::kQ1_1)->seconds;
  double small_s = small.Execute(QueryId::kQ1_1)->seconds;
  EXPECT_NEAR(big_s / small_s, 2.0, 0.3);
}

// The priced profile is QueryRun::profile projected record by record:
// bytes by the lineorder factor, a probe's region by its dimension's
// cardinality ratio (date's is 1), the aggregate hash and materialize
// staging regions fixed, every other region by the lineorder factor.
// Pricing the measured profile under that rule gives the engine's
// seconds to the bit, in both modes.
TEST(EngineTest, ProjectionScalesEachRecordByItsRule) {
  EngineEnv& env = EngineEnv::Get();
  auto scale = [](uint64_t value, double factor) {
    return static_cast<uint64_t>(
        std::llround(static_cast<double>(value) * factor));
  };
  for (const EngineConfig& config : {AwareConfig(), UnawareConfig()}) {
    SsbEngine engine(&env.db(), &env.model(), config);
    ASSERT_TRUE(engine.Prepare().ok());
    const double factor = config.project_to_sf / engine.ActualScaleFactor();
    const ssb::Cardinalities from =
        ssb::CardinalitiesFor(engine.ActualScaleFactor());
    const ssb::Cardinalities to = ssb::CardinalitiesFor(config.project_to_sf);
    auto ratio = [](uint64_t target, uint64_t actual) {
      return static_cast<double>(target) / static_cast<double>(actual);
    };
    const std::map<std::string, double> region_scale = {
        {"probe-date", 1.0},
        {"probe-customer", ratio(to.customer, from.customer)},
        {"probe-supplier", ratio(to.supplier, from.supplier)},
        {"probe-part", ratio(to.part, from.part)},
        {"aggregate", 1.0},
        {"materialize-date", 1.0},
        {"materialize-customer", 1.0},
        {"materialize-supplier", 1.0},
        {"materialize-part", 1.0}};
    const QueryTimer timer(&env.model(), config.timer);
    for (QueryId query : ssb::AllQueries()) {
      auto run = engine.Execute(query);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExecutionProfile priced;
      for (TrafficRecord record : run->profile.records()) {
        const auto it = region_scale.find(record.label);
        record.bytes = scale(record.bytes, factor);
        record.region_bytes = scale(
            record.region_bytes,
            it != region_scale.end() ? it->second : factor);
        priced.Record(std::move(record));
      }
      EXPECT_EQ(timer.EstimateSecondsWithBackground(
                    priced, run->cpu.Scaled(factor), config.threads,
                    config.pinning, {}),
                run->seconds)
          << ssb::QueryName(query);
    }
  }
}

}  // namespace
}  // namespace pmemolap
