// Closed-loop bandwidth governor scorecard: governed vs fixed-concurrency
// execution on the 13 SSB queries, with and without a standing PMEM ingest
// (the paper's Fig. 11 interference shape).
//
// Four demonstrations, each with explicit pass/fail claims (the binary
// exits nonzero when a claim fails, so CI catches regressions):
//
//   1. Pure-read SSB: with no standing writes the writer clamp and DRAM
//      staging may only help. Governed must be no slower on any query and
//      >= 1.0x geomean overall.
//   2. Mixed read/write SSB: per-socket 18-thread sequential PMEM ingest
//      runs alongside every query. The governor clamps the platform's
//      writers to the modeled knee and stages hot probe structures in
//      DRAM. Governed must reach >= 1.15x geomean over the
//      fixed baseline across all 13 queries, each bit-identical to the
//      reference.
//   3. XPLine morsel shaping ablation: a deliberately misaligned morsel
//      size tears 256 B lines at morsel boundaries. With shaping disabled
//      the torn-line re-reads cost modeled time; with shaping enabled the
//      boundaries snap and the penalty vanishes.
//   4. Determinism: two completely fresh governed runs over the same trace
//      produce byte-identical actuator logs.
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "governor/governor.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

EngineConfig BaseConfig() {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.project_to_sf = 50.0;
  return config;
}

/// The standing interference: one 18-thread sequential 4 KiB PMEM ingest
/// stream per socket — far past the write knee, so an ungoverned platform
/// burns its write budget on oversubscribed writers.
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

struct SweepResult {
  std::vector<double> seconds;  // one per query, AllQueries() order
  int verified = 0;
  std::string staged;  // converged staged set (governed runs only)
};

/// Runs all 13 queries once each (after `warmups` convergence runs per
/// query when governed) and records modeled seconds + bit-identity.
SweepResult RunSweep(const ssb::Database& db, const MemSystemModel& model,
                     const ssb::ReferenceExecutor& reference,
                     governor::BandwidthGovernor* governor,
                     const std::vector<TrafficRecord>& background) {
  EngineConfig config = BaseConfig();
  config.governor = governor;
  config.background = background;
  SsbEngine engine(&db, &model, config);
  SweepResult result;
  Status prepared = engine.Prepare();
  if (!prepared.ok()) {
    std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
    ++g_failures;
    return result;
  }
  for (QueryId query : ssb::AllQueries()) {
    if (governor != nullptr) {
      // Two warmups commit the hysteresis before the measured run.
      for (int warmup = 0; warmup < 2; ++warmup) {
        Result<SsbEngine::QueryRun> run = engine.Execute(query);
        if (!run.ok()) {
          std::printf("  warmup %s failed: %s\n",
                      ssb::QueryName(query).c_str(),
                      run.status().ToString().c_str());
          ++g_failures;
          return result;
        }
      }
      std::string staged;
      for (const std::string& name : governor->decision().staged) {
        if (!staged.empty()) staged += "+";
        staged += name;
      }
      if (!staged.empty()) result.staged = staged;
    }
    Result<SsbEngine::QueryRun> run = engine.Execute(query);
    if (!run.ok()) {
      std::printf("  %s failed: %s\n", ssb::QueryName(query).c_str(),
                  run.status().ToString().c_str());
      ++g_failures;
      return result;
    }
    result.seconds.push_back(run->seconds);
    if (run->output == reference.Execute(query)) ++result.verified;
  }
  return result;
}

void PrintSweepTable(const SweepResult& fixed, const SweepResult& governed) {
  TablePrinter table({"Query", "Fixed [s]", "Governed [s]", "Speedup"});
  size_t i = 0;
  for (QueryId query : ssb::AllQueries()) {
    if (i >= fixed.seconds.size() || i >= governed.seconds.size()) break;
    table.AddRow({ssb::QueryName(query), F3(fixed.seconds[i]),
                  F3(governed.seconds[i]),
                  F3(fixed.seconds[i] / governed.seconds[i]) + "x"});
    ++i;
  }
  table.Print();
}

std::vector<double> Speedups(const SweepResult& fixed,
                             const SweepResult& governed) {
  std::vector<double> speedups;
  for (size_t i = 0;
       i < fixed.seconds.size() && i < governed.seconds.size(); ++i) {
    speedups.push_back(fixed.seconds[i] / governed.seconds[i]);
  }
  return speedups;
}

void EmitSweepJson(std::ofstream& json, const std::string& name,
                   const SweepResult& fixed, const SweepResult& governed,
                   double geomean) {
  json << "  \"" << name << "\": {\n    \"queries\": [";
  size_t i = 0;
  for (QueryId query : ssb::AllQueries()) {
    if (i >= fixed.seconds.size() || i >= governed.seconds.size()) break;
    if (i > 0) json << ", ";
    json << "{\"query\": \"" << ssb::QueryName(query) << "\", \"fixed\": "
         << fixed.seconds[i] << ", \"governed\": " << governed.seconds[i]
         << "}";
    ++i;
  }
  json << "],\n    \"geomean_speedup\": " << geomean << ",\n"
       << "    \"verified_fixed\": " << fixed.verified << ",\n"
       << "    \"verified_governed\": " << governed.verified << ",\n"
       << "    \"staged\": \"" << governed.staged << "\"\n  },\n";
}

// ---------------------------------------------------------------------
// Part 1: pure-read SSB — governance must never cost time.
// ---------------------------------------------------------------------

void RunPureRead(const ssb::Database& db, const MemSystemModel& model,
                 const ssb::ReferenceExecutor& reference,
                 std::ofstream& json) {
  std::printf("\n[1] Pure-read SSB: governed vs fixed concurrency\n");
  const SweepResult fixed = RunSweep(db, model, reference, nullptr, {});
  governor::BandwidthGovernor governor(&model);
  const SweepResult governed =
      RunSweep(db, model, reference, &governor, {});
  if (fixed.seconds.size() != 13 || governed.seconds.size() != 13) {
    Claim(false, "all 13 queries completed in both configurations");
    return;
  }
  PrintSweepTable(fixed, governed);
  const std::vector<double> speedups = Speedups(fixed, governed);
  const double geomean = GeoMean(speedups);
  std::printf("  geomean speedup: %.3fx; staged: %s\n", geomean,
              governed.staged.empty() ? "-" : governed.staged.c_str());

  const int total = static_cast<int>(ssb::AllQueries().size());
  Claim(fixed.verified == total && governed.verified == total,
        "all 13 queries bit-identical to the reference in both modes");
  bool none_slower = true;
  for (double speedup : speedups) none_slower &= speedup >= 0.999;
  Claim(none_slower,
        "no query runs slower governed (>= 0.999x each: the writer clamp "
        "and staging only help)");
  Claim(geomean >= 1.0,
        "geomean >= 1.00x on pure reads (measured " + F3(geomean) + "x)");
  EmitSweepJson(json, "pure_read", fixed, governed, geomean);
}

// ---------------------------------------------------------------------
// Part 2: mixed read/write SSB — the headline scorecard.
// ---------------------------------------------------------------------

void RunMixed(const ssb::Database& db, const MemSystemModel& model,
              const ssb::ReferenceExecutor& reference, std::ofstream& json) {
  std::printf(
      "\n[2] Mixed SSB + per-socket 18-thread PMEM ingest (Fig. 11 shape)\n");
  const std::vector<TrafficRecord> background = IngestBackground();
  const SweepResult fixed =
      RunSweep(db, model, reference, nullptr, background);
  governor::BandwidthGovernor governor(&model);
  const SweepResult governed =
      RunSweep(db, model, reference, &governor, background);
  if (fixed.seconds.size() != 13 || governed.seconds.size() != 13) {
    Claim(false, "all 13 queries completed in both configurations");
    return;
  }
  PrintSweepTable(fixed, governed);
  const std::vector<double> speedups = Speedups(fixed, governed);
  const double geomean = GeoMean(speedups);
  std::printf("  geomean speedup: %.3fx; staged: %s\n", geomean,
              governed.staged.empty() ? "-" : governed.staged.c_str());

  const int total = static_cast<int>(ssb::AllQueries().size());
  Claim(fixed.verified == total && governed.verified == total,
        "all 13 queries bit-identical to the reference in both modes "
        "(staged probes hit payload-identical replicas)");
  Claim(geomean >= 1.15,
        "geomean >= 1.15x under write pressure (measured " + F3(geomean) +
        "x)");
  Claim(!governed.staged.empty(),
        "the governor staged hot structures in DRAM (" + governed.staged +
        ")");
  EmitSweepJson(json, "mixed", fixed, governed, geomean);
}

// ---------------------------------------------------------------------
// Part 3: XPLine morsel-shaping ablation.
// ---------------------------------------------------------------------

void RunShapingAblation(const ssb::Database& db, const MemSystemModel& model,
                        const ssb::ReferenceExecutor& reference,
                        std::ofstream& json) {
  std::printf("\n[3] XPLine morsel shaping ablation (morsel_tuples = 4095)\n");
  // BaseConfig scans the 128 B row layout, two rows per 256 B XPLine: an
  // odd morsel size puts every other interior morsel boundary mid-line,
  // tearing an XPLine unless shaping snaps it.
  auto run_one = [&](bool shape, QueryId query) -> double {
    governor::GovernorConfig gcfg;
    gcfg.shape_morsels = shape;
    governor::BandwidthGovernor governor(&model, gcfg);
    EngineConfig config = BaseConfig();
    config.morsel_tuples = 4095;
    config.governor = &governor;
    SsbEngine engine(&db, &model, config);
    Status prepared = engine.Prepare();
    if (!prepared.ok()) {
      std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
      ++g_failures;
      return 0.0;
    }
    Result<SsbEngine::QueryRun> run = engine.Execute(query);
    if (!run.ok() || !(run->output == reference.Execute(query))) {
      std::printf("  %s failed or diverged\n", ssb::QueryName(query).c_str());
      ++g_failures;
      return 0.0;
    }
    return run->seconds;
  };

  TablePrinter table({"Query", "Torn [s]", "Shaped [s]", "Penalty [ms]"});
  bool shaped_never_slower = true;
  bool torn_pays = true;
  double torn_total = 0.0;
  double shaped_total = 0.0;
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_2, QueryId::kQ4_1}) {
    const double torn = run_one(false, query);
    const double shaped = run_one(true, query);
    torn_total += torn;
    shaped_total += shaped;
    table.AddRow({ssb::QueryName(query), F3(torn), F3(shaped),
                  F3((torn - shaped) * 1e3)});
    shaped_never_slower &= shaped <= torn;
    torn_pays &= torn > shaped;
  }
  table.Print();

  Claim(torn_pays,
        "misaligned morsels cost modeled time when shaping is off (the "
        "torn-line re-reads are charged)");
  Claim(shaped_never_slower,
        "snapping boundaries to 256 B lines removes the whole penalty");
  json << "  \"shaping\": {\n    \"morsel_tuples\": 4095,\n"
       << "    \"torn_seconds\": " << torn_total << ",\n"
       << "    \"shaped_seconds\": " << shaped_total << "\n  },\n";
}

// ---------------------------------------------------------------------
// Part 4: actuator-log determinism.
// ---------------------------------------------------------------------

void RunDeterminism(const ssb::Database& db, const MemSystemModel& model,
                    const ssb::ReferenceExecutor& reference,
                    std::ofstream& json) {
  std::printf("\n[4] Actuator-log determinism (diff of two fresh runs)\n");
  std::vector<std::vector<std::string>> logs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    governor::BandwidthGovernor governor(&model);
    const SweepResult sweep =
        RunSweep(db, model, reference, &governor, IngestBackground());
    if (sweep.seconds.size() != 13) {
      Claim(false, "determinism sweep completed");
      return;
    }
    logs.push_back(governor.actuator_log());
  }
  const bool identical = logs[0] == logs[1];
  std::printf("  %zu actuator-log lines per run\n", logs[0].size());
  Claim(identical && !logs[0].empty(),
        "two fresh governed runs over the same trace produced "
        "byte-identical actuator logs");
  json << "  \"determinism\": {\n    \"log_lines\": " << logs[0].size()
       << ",\n    \"identical\": " << (identical ? "true" : "false")
       << "\n  },\n";
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) sf = 0.02;
  }

  PrintHeader(
      "Closed-loop bandwidth governance on SSB under write interference",
      "perf extension; governor semantics per DESIGN.md section 13 "
      "(paper Figs. 7/11: write knee at ~4 threads, mixed-workload "
      "interference)",
      "Governed execution beats fixed concurrency under write pressure "
      "(>= 1.15x geomean), never loses on pure reads, keeps every query "
      "bit-identical, and actuates deterministically");

  auto db = ssb::Generate({.scale_factor = sf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&db.value());
  std::printf("\nFunctional execution at sf %.2f (%zu lineorder tuples), "
              "modeled at sf %.0f.\n",
              sf, db->lineorder.size(), BaseConfig().project_to_sf);

  std::ofstream json("BENCH_governor.json");
  json << "{\n  \"bench\": \"governor\",\n  \"scale_factor\": " << sf
       << ",\n";
  RunPureRead(db.value(), model, reference, json);
  RunMixed(db.value(), model, reference, json);
  RunShapingAblation(db.value(), model, reference, json);
  RunDeterminism(db.value(), model, reference, json);
  return FinishScorecard(json, "governor");
}
