// Real wall-clock microbenchmarks (google-benchmark) of the functional
// layer: SSB data generation and query execution on this host. These
// numbers are host-dependent; they validate that the functional engine is
// efficient enough to run meaningful scale factors, and they exercise the
// same code paths the model-based benches profile.
#include <benchmark/benchmark.h>

#include "core/runner.h"
#include "engine/engine.h"
#include "engine/kernels.h"
#include "ssb/plan.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

void BM_Dbgen(benchmark::State& state) {
  double sf = static_cast<double>(state.range(0)) / 1000.0;
  for (auto _ : state) {
    auto db = ssb::Generate({.scale_factor = sf, .seed = 1});
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() *
                          ssb::CardinalitiesFor(sf).lineorder);
}
BENCHMARK(BM_Dbgen)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

class SsbFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (db_ == nullptr) {
      db_ = new ssb::Database(*ssb::Generate({.scale_factor = 0.02,
                                              .seed = 1}));
      model_ = new MemSystemModel();
      EngineConfig config;
      config.mode = EngineMode::kPmemAware;
      config.threads = 36;
      engine_ = new SsbEngine(db_, model_, config);
      (void)engine_->Prepare();
    }
  }

  static ssb::Database* db_;
  static MemSystemModel* model_;
  static SsbEngine* engine_;
};

ssb::Database* SsbFixture::db_ = nullptr;
MemSystemModel* SsbFixture::model_ = nullptr;
SsbEngine* SsbFixture::engine_ = nullptr;

BENCHMARK_DEFINE_F(SsbFixture, QueryExecution)(benchmark::State& state) {
  ssb::QueryId query =
      ssb::AllQueries()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto run = engine_->Execute(query);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db_->lineorder.size()));
  state.SetLabel(ssb::QueryName(query));
}
BENCHMARK_REGISTER_F(SsbFixture, QueryExecution)
    ->DenseRange(0, 12)
    ->Unit(benchmark::kMillisecond);

// Real wall-clock row-vs-column scan (the §2.2 motivation, measured on
// the host rather than modeled): Q1.1's plan through the kernels over the
// 128 B row image and over the raw columns. The columnar scan reads the
// plan's four 4 B columns, the row scan drags 128 B rows through the
// cache hierarchy.
void ScanQ11(benchmark::State& state, const KernelContext& ctx,
             uint64_t tuples, uint64_t bytes_per_tuple) {
  KernelScratch scratch;
  AggTable groups;
  KernelCounters counters;
  int64_t sum = 0;
  bool scalar = false;
  for (auto _ : state) {
    ExecuteMorselKernel(ssb::QueryId::kQ1_1, ctx, 0, tuples, &scratch,
                        &groups, &sum, &scalar, &counters);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * tuples * bytes_per_tuple));
}

void BM_RowScan(benchmark::State& state) {
  static const ssb::Database db =
      *ssb::Generate({.scale_factor = 0.05, .seed = 3});
  static const DenseDimMap date = [] {
    DenseDimMap map;
    map.Build(db.date);
    return map;
  }();
  KernelContext ctx;
  ctx.rows = db.lineorder.data();
  ctx.date = &date;
  ScanQ11(state, ctx, db.lineorder.size(), sizeof(ssb::LineorderRow));
}
BENCHMARK(BM_RowScan)->Unit(benchmark::kMillisecond);

void BM_ColumnScan(benchmark::State& state) {
  // The move-consuming constructor releases the 128 B row image once the
  // columns are built: only the columnar store and the date map stay
  // resident, instead of a full Database alongside them.
  struct Image {
    ssb::ColumnStore columns;
    DenseDimMap date;
  };
  static const Image image = [] {
    auto db = ssb::Generate({.scale_factor = 0.05, .seed = 3});
    Image built;
    built.date.Build(db->date);
    built.columns = ssb::ColumnStore(std::move(db->lineorder));
    return built;
  }();
  KernelContext ctx;
  ctx.columns = &image.columns;
  ctx.date = &image.date;
  ScanQ11(state, ctx, image.columns.size(),
          sizeof(int32_t) * ssb::ScanColumnsFor(ssb::QueryId::kQ1_1).size());
}
BENCHMARK(BM_ColumnScan)->Unit(benchmark::kMillisecond);

void BM_ModelEvaluation(benchmark::State& state) {
  // The bandwidth model itself must be cheap: every figure bench sweeps
  // hundreds of points.
  MemSystemModel model;
  WorkloadRunner runner(&model);
  for (auto _ : state) {
    auto bw = runner.Bandwidth(OpType::kWrite, Pattern::kSequentialGrouped,
                               Media::kPmem, 4096, 18, RunOptions());
    benchmark::DoNotOptimize(bw);
  }
}
BENCHMARK(BM_ModelEvaluation);

}  // namespace
}  // namespace pmemolap

BENCHMARK_MAIN();
