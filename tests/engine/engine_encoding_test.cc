// Encoded-scan equivalence: with EngineConfig::encoding on, every SSB
// query must stay bit-identical to the raw columnar path — in every
// executor × kernel combination — while the modeled fact-scan traffic
// drops to the encoded per-column byte widths. The modeled runtime is a
// function of the config alone, so all encoded combinations must agree
// on it to the bit.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "governor/governor.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database + model for the encoding tests (dbgen at sf 0.02).
class EncodingEnv {
 public:
  static EncodingEnv& Get() {
    static EncodingEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const MemSystemModel& model() const { return model_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  EncodingEnv() : db_(*ssb::Generate({.scale_factor = 0.02, .seed = 11})) {}

  Database db_;
  MemSystemModel model_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig ColumnarConfig(EngineMode mode) {
  EngineConfig config;
  config.mode = mode;
  config.media = Media::kPmem;
  config.threads = 8;
  config.columnar = true;
  if (mode == EngineMode::kUnaware) {
    config.use_both_sockets = false;
    config.pinning = PinningPolicy::kNumaRegion;
  }
  return config;
}

EngineConfig EncodedConfig(EngineMode mode) {
  EngineConfig config = ColumnarConfig(mode);
  config.encoding = true;
  return config;
}

/// Sum of the fact-scan record bytes across an execution profile.
uint64_t ScanRecordBytes(const ExecutionProfile& profile) {
  uint64_t bytes = 0;
  for (const TrafficRecord& record : profile.records()) {
    if (record.label == "scan") bytes += record.bytes;
  }
  return bytes;
}

/// The two executors (serial, morsel-stealing pool). Modeled seconds of
/// the encoded engine must agree across both.
struct ExecCombo {
  const char* name;
  bool parallel;
};

constexpr ExecCombo kCombos[] = {
    {"serial", false},
    {"stealing", true},
};

class EngineEncodingTest : public ::testing::TestWithParam<EngineMode> {};

// Acceptance gate: 13/13 queries bit-identical encoded vs. raw in every
// executor mode, with one modeled runtime shared by all encoded combos.
TEST_P(EngineEncodingTest, BitIdenticalAcrossExecutorsAndKernels) {
  EncodingEnv& env = EncodingEnv::Get();

  std::vector<std::unique_ptr<SsbEngine>> engines;
  for (const ExecCombo& combo : kCombos) {
    EngineConfig config = EncodedConfig(GetParam());
    config.parallel_execution = combo.parallel;
    config.executor = ExecutorKind::kMorselStealing;
    config.morsel_tuples = 4096;  // plenty of stealable units at sf 0.02
    engines.push_back(
        std::make_unique<SsbEngine>(&env.db(), &env.model(), config));
    ASSERT_TRUE(engines.back()->Prepare().ok()) << combo.name;
  }

  EngineConfig raw = ColumnarConfig(GetParam());
  raw.parallel_execution = false;
  SsbEngine raw_engine(&env.db(), &env.model(), raw);
  ASSERT_TRUE(raw_engine.Prepare().ok());

  for (QueryId query : ssb::AllQueries()) {
    auto raw_run = raw_engine.Execute(query);
    ASSERT_TRUE(raw_run.ok()) << raw_run.status().ToString();
    ssb::QueryOutput expected = env.reference().Execute(query);

    double encoded_seconds = -1.0;
    for (size_t i = 0; i < engines.size(); ++i) {
      auto run = engines[i]->Execute(query);
      ASSERT_TRUE(run.ok()) << kCombos[i].name << "/" << ssb::QueryName(query)
                            << ": " << run.status().ToString();
      EXPECT_EQ(run->output, expected)
          << kCombos[i].name << "/" << ssb::QueryName(query)
          << ": encoded vs reference";
      EXPECT_EQ(run->output, raw_run->output)
          << kCombos[i].name << "/" << ssb::QueryName(query)
          << ": encoded vs raw";
      // Probe counts feed the traffic model; the encoded fast paths must
      // preserve the raw path's short-circuit counting exactly.
      EXPECT_EQ(run->cpu.probes, raw_run->cpu.probes)
          << kCombos[i].name << "/" << ssb::QueryName(query);
      if (encoded_seconds < 0.0) {
        encoded_seconds = run->seconds;
      } else {
        EXPECT_EQ(run->seconds, encoded_seconds)
            << kCombos[i].name << "/" << ssb::QueryName(query)
            << ": modeled runtime must not depend on the executor";
      }
    }
  }
}

// The point of the exercise: the modeled fact-scan traffic shrinks to
// the encoded byte widths — at least 2x smaller in geomean over the 13
// queries — and the saved bytes show up in the scan phase's modeled
// seconds. Every other phase is untouched.
TEST_P(EngineEncodingTest, ScanBytesHalveAndOnlyScanSecondsChange) {
  EncodingEnv& env = EncodingEnv::Get();

  SsbEngine raw_engine(&env.db(), &env.model(), ColumnarConfig(GetParam()));
  SsbEngine enc_engine(&env.db(), &env.model(), EncodedConfig(GetParam()));
  ASSERT_TRUE(raw_engine.Prepare().ok());
  ASSERT_TRUE(enc_engine.Prepare().ok());

  double log_ratio_sum = 0.0;
  for (QueryId query : ssb::AllQueries()) {
    auto raw_run = raw_engine.Execute(query);
    auto enc_run = enc_engine.Execute(query);
    ASSERT_TRUE(raw_run.ok());
    ASSERT_TRUE(enc_run.ok());

    uint64_t raw_scan = ScanRecordBytes(raw_run->profile);
    uint64_t enc_scan = ScanRecordBytes(enc_run->profile);
    ASSERT_GT(raw_scan, 0u) << ssb::QueryName(query);
    ASSERT_GT(enc_scan, 0u) << ssb::QueryName(query);
    EXPECT_LT(enc_scan, raw_scan) << ssb::QueryName(query);
    log_ratio_sum += std::log(static_cast<double>(raw_scan) /
                              static_cast<double>(enc_scan));

    // Cheaper scans, identical everything else.
    EXPECT_LT(enc_run->seconds, raw_run->seconds) << ssb::QueryName(query);
    for (const auto& [phase, seconds] : raw_run->phase_seconds) {
      auto it = enc_run->phase_seconds.find(phase);
      ASSERT_NE(it, enc_run->phase_seconds.end())
          << ssb::QueryName(query) << ": phase " << phase;
      if (phase == "scan") {
        EXPECT_LT(it->second, seconds) << ssb::QueryName(query);
      } else {
        EXPECT_EQ(it->second, seconds)
            << ssb::QueryName(query) << ": phase " << phase
            << " must not change under encoding";
      }
    }
  }
  double geomean = std::exp(log_ratio_sum / 13.0);
  EXPECT_GE(geomean, 2.0)
      << "encoded scans must at least halve the modeled fact bytes";
}

// encoding = false must be inert: bit-identical outputs, probe counts,
// traffic records, and modeled seconds to a config that predates the
// flag entirely (the default-initialized field).
TEST_P(EngineEncodingTest, EncodingOffReproducesBaseline) {
  EncodingEnv& env = EncodingEnv::Get();

  EngineConfig baseline = ColumnarConfig(GetParam());
  EngineConfig off = ColumnarConfig(GetParam());
  off.encoding = false;  // explicit, same as default
  SsbEngine baseline_engine(&env.db(), &env.model(), baseline);
  SsbEngine off_engine(&env.db(), &env.model(), off);
  ASSERT_TRUE(baseline_engine.Prepare().ok());
  ASSERT_TRUE(off_engine.Prepare().ok());

  for (QueryId query : ssb::AllQueries()) {
    auto a = baseline_engine.Execute(query);
    auto b = off_engine.Execute(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->output, b->output) << ssb::QueryName(query);
    EXPECT_EQ(a->seconds, b->seconds) << ssb::QueryName(query);
    EXPECT_EQ(ScanRecordBytes(a->profile), ScanRecordBytes(b->profile))
        << ssb::QueryName(query);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, EngineEncodingTest,
                         ::testing::Values(EngineMode::kPmemAware,
                                           EngineMode::kUnaware),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return info.param == EngineMode::kPmemAware
                                      ? "Aware"
                                      : "Unaware";
                         });

// --- Config validation -------------------------------------------------------

TEST(EngineEncodingValidation, RequiresColumnarLayout) {
  EncodingEnv& env = EncodingEnv::Get();
  EngineConfig config = EncodedConfig(EngineMode::kPmemAware);
  config.columnar = false;
  SsbEngine engine(&env.db(), &env.model(), config);
  Status status = engine.Prepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineEncodingValidation, IncompatibleWithFaultMode) {
  EncodingEnv& env = EncodingEnv::Get();
  FaultDomain domain;  // validation fires before the domain is touched
  EngineConfig config = EncodedConfig(EngineMode::kPmemAware);
  config.fault = &domain;
  SsbEngine engine(&env.db(), &env.model(), config);
  Status status = engine.Prepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineEncodingValidation, IncompatibleWithDurableMode) {
  EncodingEnv& env = EncodingEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());
  EngineConfig config = EncodedConfig(EngineMode::kPmemAware);
  config.durable = table->get();
  SsbEngine engine(&env.db(), &model, config);
  Status status = engine.Prepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --- Governor integration ----------------------------------------------------

// With the governor in the loop the encoded engine still answers every
// query bit-identically, and the telemetry it feeds carries the encoded
// (smaller) scan footprint — the governor's staging judges the bytes
// that actually move.
TEST(EngineEncodingGovernor, GovernedEncodedRunsStayBitIdentical) {
  EncodingEnv& env = EncodingEnv::Get();
  governor::BandwidthGovernor governor(&env.model());
  EngineConfig config = EncodedConfig(EngineMode::kPmemAware);
  config.governor = &governor;
  SsbEngine engine(&env.db(), &env.model(), config);
  ASSERT_TRUE(engine.Prepare().ok());

  for (int round = 0; round < 3; ++round) {
    for (QueryId query : ssb::AllQueries()) {
      auto run = engine.Execute(query);
      ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output, env.reference().Execute(query))
          << ssb::QueryName(query) << " round " << round;
    }
  }
  EXPECT_EQ(governor.decision().quantum, 13 * 3);
}

// --- Concurrency (TSan-covered in CI) ---------------------------------------

// Many host threads hammer one shared encoded engine, once through the
// work-stealing pool and once through a serial engine, whose runs execute
// inline on each calling thread side by side. The encoded store is
// immutable after Prepare and every worker decodes into its own scratch,
// so TSan must stay quiet and every result must match the reference.
TEST(EncodingConcurrencyTest, ConcurrentEncodedScansBitIdentical) {
  EncodingEnv& env = EncodingEnv::Get();
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "pool" : "serial");
    EngineConfig config = EncodedConfig(EngineMode::kPmemAware);
    config.parallel_execution = parallel;
    config.executor = ExecutorKind::kMorselStealing;
    config.morsel_tuples = 4096;
    SsbEngine engine(&env.db(), &env.model(), config);
    ASSERT_TRUE(engine.Prepare().ok());

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (QueryId query : ssb::AllQueries()) {
            auto run = engine.Execute(query);
            if (!run.ok() ||
                !(run->output == env.reference().Execute(query))) {
              ++failures[t];
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace pmemolap
