// Executor equivalence over the one query path: in both engine modes,
// over every fact image the kernels read (the plain column store, guarded
// PMEM under an injected-fault preset, and a durable snapshot of the whole
// table or of its first half) and under a bandwidth governor whose morsel
// boundaries tear XPLines, the persistent morsel-stealing pool and the
// serial executor must agree with the reference executor, produce
// bit-equal modeled runtimes and progress, and do exactly the pinned work
// below.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <tuple>

#include "fault/fault_domain.h"
#include "governor/governor.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database for the executor tests (dbgen at sf 0.02).
class PoolEnv {
 public:
  static PoolEnv& Get() {
    static PoolEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }
  /// The reference over the first half of lineorder (the durable tests'
  /// first epoch).
  const ssb::ReferenceExecutor& half_reference() const {
    return half_reference_;
  }

 private:
  PoolEnv()
      : db_(*ssb::Generate({.scale_factor = 0.02, .seed = 11})),
        half_(db_) {
    half_.lineorder.resize(db_.lineorder.size() / 2);
  }

  Database db_;
  Database half_;
  ssb::ReferenceExecutor reference_{&db_};
  ssb::ReferenceExecutor half_reference_{&half_};
};

EngineConfig BaseConfig(EngineMode mode) {
  EngineConfig config;
  config.mode = mode;
  config.media = Media::kPmem;
  config.threads = 8;
  if (mode == EngineMode::kUnaware) {
    config.use_both_sockets = false;
    config.pinning = PinningPolicy::kNumaRegion;
  }
  return config;
}

/// Tuples scanned, dimension probes and aggregate updates of one query.
struct PinnedWork {
  uint64_t tuples;
  uint64_t probes;
  uint64_t agg_updates;
};

// The work each query does on this database (sf 0.02, seed 11), in
// ssb::AllQueries() order. The constants predate the plan executor and
// must not move with it: these counts are what the traffic model prices,
// so they pin modeled seconds in every mode.
constexpr std::array<PinnedWork, 13> kWholeTable = {{
    {120000, 15758, 2245},   // Q1.1
    {120000, 6475, 95},      // Q1.2
    {120000, 6494, 12},      // Q1.3
    {120000, 125329, 985},   // Q2.1
    {120000, 121295, 245},   // Q2.2
    {120000, 120089, 13},    // Q2.3
    {120000, 147579, 4387},  // Q3.1
    {120000, 125457, 120},   // Q3.2
    {120000, 120577, 0},     // Q3.3
    {120000, 120577, 0},     // Q3.4
    {120000, 150404, 2078},  // Q4.1
    {120000, 150404, 591},   // Q4.2
    {120000, 123082, 33},    // Q4.3
}};
constexpr std::array<PinnedWork, 13> kFirstHalf = {{
    {60000, 7837, 1084},   // Q1.1
    {60000, 3233, 48},     // Q1.2
    {60000, 3243, 6},      // Q1.3
    {60000, 62644, 474},   // Q2.1
    {60000, 60684, 136},   // Q2.2
    {60000, 60047, 6},     // Q2.3
    {60000, 73685, 2173},  // Q3.1
    {60000, 62710, 54},    // Q3.2
    {60000, 60298, 0},     // Q3.3
    {60000, 60298, 0},     // Q3.4
    {60000, 75059, 1014},  // Q4.1
    {60000, 75059, 307},   // Q4.2
    {60000, 61507, 17},    // Q4.3
}};

/// The fact image an engine reads; kGoverned reads the plain image under
/// a bandwidth governor.
enum class Image { kPlain, kFault, kDurableFull, kDurableHalf, kGoverned };

const char* ImageName(Image image) {
  switch (image) {
    case Image::kPlain:
      return "Plain";
    case Image::kFault:
      return "Fault";
    case Image::kDurableFull:
      return "DurableFull";
    case Image::kDurableHalf:
      return "DurableHalf";
    case Image::kGoverned:
      return "Governed";
  }
  return "Unknown";
}

/// One engine and the fault or durable state its image lives in. Fault
/// mode prices through the model the moderate preset degrades at t = 5 s.
struct Deployment {
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<MemSystemModel> model;
  std::unique_ptr<governor::BandwidthGovernor> governor;
  std::unique_ptr<PmemSpace> space;
  FaultDomain domain;
  std::unique_ptr<DurableTable> table;
  std::unique_ptr<SsbEngine> engine;
};

/// Prepares an engine over `image`; durable images ingest lineorder as two
/// epochs (the first half, then the rest).
void Deploy(EngineMode mode, Image image, bool pooled,
            std::unique_ptr<Deployment>* out) {
  const Database& db = PoolEnv::Get().db();
  auto d = std::make_unique<Deployment>();
  EngineConfig config = BaseConfig(mode);
  config.parallel_execution = pooled;
  config.executor = ExecutorKind::kMorselStealing;
  // Small morsels so the sf-0.02 fact table (120k rows) still splits into
  // plenty of stealable units.
  config.morsel_tuples = 4096;
  if (image == Image::kFault) {
    d->injector = std::make_unique<FaultInjector>(FaultSpec::Preset(2));
    d->injector->AdvanceTo(5.0);
    d->model = std::make_unique<MemSystemModel>(
        d->injector->Degrade(MemSystemConfig()));
  } else {
    d->model = std::make_unique<MemSystemModel>();
  }
  if (image == Image::kGoverned) {
    // Shaping off, and 1001-row morsels are not a whole number of 256 B
    // XPLines (128 B rows): every interior boundary tears a line, which
    // both executors must price.
    d->governor = std::make_unique<governor::BandwidthGovernor>(
        d->model.get(), governor::GovernorConfig{.shape_morsels = false});
    config.governor = d->governor.get();
    config.morsel_tuples = 1001;
  }
  d->space = std::make_unique<PmemSpace>(d->model->config().topology);
  if (image == Image::kFault) {
    d->injector->Arm(d->space.get());
    d->domain.space = d->space.get();
    d->domain.injector = d->injector.get();
    config.fault = &d->domain;
  }
  if (image == Image::kDurableFull || image == Image::kDurableHalf) {
    auto table =
        DurableTable::Create(d->space.get(), nullptr, DurableTable::Options());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    d->table = std::move(table.value());
    config.durable = d->table.get();
  }
  d->engine = std::make_unique<SsbEngine>(&db, d->model.get(), config);
  ASSERT_TRUE(d->engine->Prepare().ok());
  if (d->table != nullptr) {
    const uint64_t rows = db.lineorder.size();
    const uint64_t half = rows / 2;
    ASSERT_TRUE(d->engine->Ingest(db.lineorder.data(), half).ok());
    ASSERT_TRUE(
        d->engine->Ingest(db.lineorder.data() + half, rows - half).ok());
  }
  *out = std::move(d);
}

class ExecutorEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, Image>> {};

TEST_P(ExecutorEquivalenceTest, PinnedWorkAndBitEqualSeconds) {
  PoolEnv& env = PoolEnv::Get();
  const auto [mode, image] = GetParam();
  std::unique_ptr<Deployment> serial;
  std::unique_ptr<Deployment> pooled;
  ASSERT_NO_FATAL_FAILURE(Deploy(mode, image, false, &serial));
  ASSERT_NO_FATAL_FAILURE(Deploy(mode, image, true, &pooled));

  qos::QueryOptions options;
  const std::array<PinnedWork, 13>* pinned = &kWholeTable;
  const ssb::ReferenceExecutor* reference = &env.reference();
  if (image == Image::kDurableHalf) {
    options.snapshot_epoch = 1;
    pinned = &kFirstHalf;
    reference = &env.half_reference();
  }
  size_t q = 0;
  for (QueryId query : ssb::AllQueries()) {
    const PinnedWork& want = (*pinned)[q++];
    auto serial_run = serial->engine->Execute(query, options);
    auto pooled_run = pooled->engine->Execute(query, options);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
    ASSERT_TRUE(pooled_run.ok()) << pooled_run.status().ToString();

    EXPECT_EQ(serial_run->output, reference->Execute(query))
        << ssb::QueryName(query) << ": serial vs reference";
    EXPECT_EQ(pooled_run->output, serial_run->output)
        << ssb::QueryName(query) << ": pool vs serial";
    // Same counts in, same pricing out: the modeled runtime must match to
    // the bit, not approximately.
    EXPECT_EQ(pooled_run->seconds, serial_run->seconds)
        << ssb::QueryName(query) << ": modeled runtime must not drift";
    EXPECT_EQ(pooled_run->progress.units_total,
              serial_run->progress.units_total)
        << ssb::QueryName(query) << ": both run one morsel plan";
    for (const SsbEngine::QueryRun* run : {&*serial_run, &*pooled_run}) {
      EXPECT_EQ(run->cpu.tuples_scanned, want.tuples)
          << ssb::QueryName(query);
      EXPECT_EQ(run->cpu.probes, want.probes) << ssb::QueryName(query);
      EXPECT_EQ(run->cpu.agg_updates, want.agg_updates)
          << ssb::QueryName(query);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, ExecutorEquivalenceTest,
    ::testing::Combine(::testing::Values(EngineMode::kPmemAware,
                                         EngineMode::kUnaware),
                       ::testing::Values(Image::kPlain, Image::kFault,
                                         Image::kDurableFull,
                                         Image::kDurableHalf,
                                         Image::kGoverned)),
    [](const ::testing::TestParamInfo<std::tuple<EngineMode, Image>>& info) {
      return std::string(std::get<0>(info.param) == EngineMode::kPmemAware
                             ? "Aware"
                             : "Unaware") +
             "_" + ImageName(std::get<1>(info.param));
    });

// The guarded fault path rides the same morsel dispatch: results must stay
// bit-identical to the reference under the moderate fault preset.
TEST(ExecutorFaultTest, MorselStealingBitIdenticalUnderModerateFaults) {
  PoolEnv& env = PoolEnv::Get();

  FaultInjector injector(FaultSpec::Preset(2));
  injector.AdvanceTo(5.0);
  MemSystemModel model(injector.Degrade(MemSystemConfig()));
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config = BaseConfig(EngineMode::kPmemAware);
  config.executor = ExecutorKind::kMorselStealing;
  config.morsel_tuples = 4096;
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  for (QueryId query : ssb::AllQueries()) {
    auto run = engine.Execute(query);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(query))
        << ssb::QueryName(query);
  }
}

// Satellite: more threads than tuples must not produce degenerate worker
// ranges — the static split clamps, and both executors still agree with
// the reference on a tiny database.
TEST(ExecutorClampTest, MoreThreadsThanRows) {
  auto tiny = ssb::Generate({.scale_factor = 0.00002, .seed = 7});
  ASSERT_TRUE(tiny.ok());
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&*tiny);

  for (ExecutorKind kind :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    EngineConfig config = BaseConfig(EngineMode::kPmemAware);
    config.threads = 10'000;  // way past the row count
    config.executor = kind;
    SsbEngine engine(&*tiny, &model, config);
    ASSERT_TRUE(engine.Prepare().ok()) << ExecutorKindName(kind);
    for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_2, QueryId::kQ4_3}) {
      auto run = engine.Execute(query);
      ASSERT_TRUE(run.ok()) << ExecutorKindName(kind) << "/"
                            << ssb::QueryName(query) << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output, reference.Execute(query))
          << ExecutorKindName(kind) << "/" << ssb::QueryName(query);
    }
  }
}

}  // namespace
}  // namespace pmemolap
