// Wall-clock SSB: real host execution time of the 13 queries under each
// executor — unlike the figure benches, which report the *modeled* PMEM
// runtime, this measures what the host CPU actually spends executing the
// queries functionally. Both executors run the vectorized kernels:
//
//   serial-vectorized: each socket's range inline on the calling thread
//   morsel-vectorized: the persistent work-stealing pool
//
// Every run is verified against ssb::ReferenceExecutor, including a
// moderate-fault-preset pass through the same morsel dispatch, and the
// per-query wall-clock plus the geomean speedup of the pool over the
// serial executor is written to BENCH_wallclock_ssb.json.
//
// Flags: --smoke (sf 0.02, 1 rep — the CI configuration), --sf=<double>,
//        --threads=<int>, --morsel=<tuples>, --reps=<int>.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

struct Mode {
  const char* name;
  bool parallel;
};

constexpr Mode kModes[] = {
    {"serial-vectorized", false},
    {"morsel-vectorized", true},
};
constexpr const char* kBaseline = "serial-vectorized";
constexpr const char* kContender = "morsel-vectorized";

double MillisOf(const SsbEngine& engine, QueryId query, int reps,
                bool* ok, bool* verified,
                const ssb::ReferenceExecutor& reference) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto run = engine.Execute(query);
    auto stop = std::chrono::steady_clock::now();
    if (!run.ok()) {
      *ok = false;
      return 0.0;
    }
    if (rep == 0 && run->output != reference.Execute(query)) {
      *verified = false;
    }
    double ms = std::chrono::duration<double, std::milli>(stop - start)
                    .count();
    if (rep == 0 || ms < best) best = ms;
  }
  *ok = true;
  return best;
}

bool FaultMorselCheck(const ssb::Database& db,
                      const ssb::ReferenceExecutor& reference, int threads) {
  FaultInjector injector(FaultSpec::Preset(2));  // moderate
  injector.AdvanceTo(5.0);
  MemSystemModel model(injector.Degrade(MemSystemConfig()));
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = threads;
  config.executor = ExecutorKind::kMorselStealing;
  config.fault = &domain;
  SsbEngine engine(&db, &model, config);
  if (!engine.Prepare().ok()) return false;
  for (QueryId query : ssb::AllQueries()) {
    auto run = engine.Execute(query);
    if (!run.ok() || run->output != reference.Execute(query)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.2;
  int reps = 3;
  int threads = std::max(
      2, std::min(8, static_cast<int>(std::thread::hardware_concurrency())));
  uint64_t morsel_tuples = kDefaultMorselTuples;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sf = 0.02;
      reps = 1;
    } else if (std::strncmp(argv[i], "--sf=", 5) == 0) {
      sf = std::atof(argv[i] + 5);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--morsel=", 9) == 0) {
      morsel_tuples = static_cast<uint64_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      std::printf("unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  PrintHeader("Wall-clock SSB: serial vs morsel-stealing executor",
              "execution layer (morsel-driven pool + vectorized kernels)",
              "the pool's geomean wall-clock speedup over the serial "
              "executor, both on the vectorized kernels");
  std::printf("sf %.3g, %d threads, %llu-tuple morsels, best of %d reps\n\n",
              sf, threads, static_cast<unsigned long long>(morsel_tuples),
              reps);

  auto db = ssb::Generate({.scale_factor = sf, .seed = 11});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&*db);

  std::vector<std::unique_ptr<SsbEngine>> engines;
  for (const Mode& mode : kModes) {
    EngineConfig config;
    config.mode = EngineMode::kPmemAware;
    config.media = Media::kPmem;
    config.threads = threads;
    config.parallel_execution = mode.parallel;
    config.executor = ExecutorKind::kMorselStealing;
    config.morsel_tuples = morsel_tuples;
    engines.push_back(std::make_unique<SsbEngine>(&*db, &model, config));
    if (!engines.back()->Prepare().ok()) {
      std::printf("Prepare failed for %s\n", mode.name);
      return 1;
    }
  }

  std::vector<std::string> columns = {"Query"};
  for (const Mode& mode : kModes) columns.push_back(mode.name);
  columns.push_back("Speedup");
  columns.push_back("Results");
  TablePrinter table(columns);

  // queries x modes -> best-of-reps milliseconds.
  std::map<std::string, std::map<std::string, double>> millis;
  bool all_verified = true;
  double log_speedup_sum = 0.0;
  int query_count = 0;
  for (QueryId query : ssb::AllQueries()) {
    std::vector<std::string> row = {ssb::QueryName(query)};
    bool verified = true;
    for (size_t m = 0; m < std::size(kModes); ++m) {
      bool ok = false;
      double ms = MillisOf(*engines[m], query, reps, &ok, &verified,
                           reference);
      if (!ok) {
        std::printf("%s failed on %s\n", kModes[m].name,
                    ssb::QueryName(query).c_str());
        return 1;
      }
      millis[ssb::QueryName(query)][kModes[m].name] = ms;
      row.push_back(TablePrinter::Cell(ms, 2));
    }
    double speedup = millis[ssb::QueryName(query)][kBaseline] /
                     millis[ssb::QueryName(query)][kContender];
    log_speedup_sum += std::log(speedup);
    ++query_count;
    all_verified = all_verified && verified;
    row.push_back(TablePrinter::Cell(speedup, 2));
    row.push_back(verified ? "verified" : "MISMATCH");
    table.AddRow(row);
  }
  table.Print();

  const double geomean = std::exp(log_speedup_sum / query_count);
  std::printf("\ngeomean speedup %s vs %s: %.2fx\n", kContender, kBaseline,
              geomean);

  const bool fault_ok = FaultMorselCheck(*db, reference, threads);
  std::printf("moderate-fault morsel check: %s\n",
              fault_ok ? "verified" : "MISMATCH");

  std::ofstream json("BENCH_wallclock_ssb.json");
  json << "{\n"
       << "  \"bench\": \"wallclock_ssb\",\n"
       << "  \"scale_factor\": " << sf << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"morsel_tuples\": " << morsel_tuples << ",\n"
       << "  \"repetitions\": " << reps << ",\n"
       << "  \"baseline\": \"" << kBaseline << "\",\n"
       << "  \"contender\": \"" << kContender << "\",\n"
       << "  \"queries\": [\n";
  bool first = true;
  for (const auto& [query, by_mode] : millis) {
    if (!first) json << ",\n";
    first = false;
    json << "    {\"query\": \"" << query << "\"";
    for (const Mode& mode : kModes) {
      json << ", \"" << mode.name << "_ms\": " << by_mode.at(mode.name);
    }
    json << ", \"speedup\": "
         << by_mode.at(kBaseline) / by_mode.at(kContender) << "}";
  }
  json << "\n  ],\n"
       << "  \"geomean_speedup\": " << geomean << ",\n"
       << "  \"all_verified\": " << (all_verified ? "true" : "false") << ",\n"
       << "  \"fault_morsel_verified\": " << (fault_ok ? "true" : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote BENCH_wallclock_ssb.json\n");

  return all_verified && fault_ok ? 0 : 1;
}
