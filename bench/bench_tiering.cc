// Three-tier placement scorecard: closed-loop DRAM/PMEM/SSD extent
// placement vs the static pre-tiering layout and an LRU baseline on a
// larger-than-memory SSB working set under Zipf skew.
//
// The working set deliberately exceeds the DRAM+PMEM budgets (the sf
// 50/100 regime of ROADMAP item 3): only 40% of the fact table fits on
// the fast tiers, and a seeded Zipf(0.8) segment schedule decides which
// address ranges queries actually touch. The hot ranks are shuffled
// across the address space, so the static address-order fill covers them
// only by accident while the closed loop promotes them by decayed heat.
//
// Four demonstrations, each with explicit pass/fail claims (the binary
// exits nonzero when a claim fails, so CI catches regressions):
//
//   1. Skewed sweep at sf 50: the same (query, segment) schedule runs
//      under kClosedLoop, kStatic, and kLru. Closed-loop must reach
//      >= 1.3x modeled geomean over static and >= 1.1x over LRU, with
//      every paired execution bit-identical across policies.
//   2. Full-table identity: all 13 SSB queries on a tiered engine match
//      the reference executor and the tiering == nullptr engine bit for
//      bit, and an all-PMEM manager reproduces the off-path modeled
//      seconds exactly (placement prices traffic, never changes plans).
//   3. The same schedule projected to sf 100: doubling the modeled scale
//      scales every traffic byte uniformly, so the placement win holds.
//   4. Determinism: two completely fresh closed-loop runs over the same
//      schedule produce byte-identical actuator logs.
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "engine/engine.h"
#include "ssb/reference.h"
#include "tiering/tier_manager.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

EngineConfig BaseConfig(double project_to_sf) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  // The paper's placement discipline: random-access structures (dimension
  // indexes, aggregate state) live in DRAM; the sequential fact scan is
  // what the tier placement prices.
  config.index_media = Media::kDram;
  config.intermediate_media = Media::kDram;
  config.columnar = true;
  config.threads = 36;
  config.project_to_sf = project_to_sf;
  return config;
}

/// Budgets sized so the table overflows: 10% of the row image fits in
/// DRAM, 30% in PMEM, and the cold 60% lives on the modeled NVMe SSD.
tiering::TieringConfig ManagerConfig(const ssb::Database& db,
                                     tiering::TierPolicy policy) {
  const uint64_t table_bytes =
      db.lineorder.size() * sizeof(ssb::LineorderRow);
  tiering::TieringConfig config;
  config.policy = policy;
  config.extent_tuples = 1024;
  config.dram_budget_bytes = table_bytes / 10;
  config.pmem_budget_bytes = 3 * table_bytes / 10;
  // A long memory and a strong incumbent bonus keep the mild Zipf(0.8)
  // ranking stable near the budget boundary: marginal extents stay put
  // instead of ping-ponging, and the per-quantum migration cap bounds
  // the standing traffic a convergence burst can inject.
  config.decay = 0.98;
  config.hysteresis_quanta = 3;
  config.incumbent_bonus = 1.5;
  config.migration_budget_bytes = 16 * config.extent_tuples *
                                  sizeof(ssb::LineorderRow);
  return config;
}

/// One scheduled execution: a query over one segment's tuple window.
struct ScheduleEntry {
  QueryId query;
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t segment = 0;
};

constexpr uint64_t kSegments = 32;
constexpr size_t kWarmup = 26;    // converges the hysteresis before measuring
constexpr size_t kMeasured = 52;  // 13 queries x 4 skewed draws

/// The Zipf(0.8) segment schedule. Hot ranks are shuffled across the
/// address space with a seeded Fisher-Yates so address order carries no
/// information about heat — the regime where a static fill must lose.
std::vector<ScheduleEntry> MakeSchedule(const ssb::Database& db) {
  const uint64_t rows = db.lineorder.size();
  const uint64_t segment_tuples = rows / kSegments;
  std::vector<uint64_t> rank_to_segment(kSegments);
  for (uint64_t i = 0; i < kSegments; ++i) rank_to_segment[i] = i;
  Rng shuffle_rng(0x715E);
  for (uint64_t i = kSegments - 1; i > 0; --i) {
    uint64_t j = shuffle_rng.NextBelow(i + 1);
    std::swap(rank_to_segment[i], rank_to_segment[j]);
  }
  ZipfSampler zipf(kSegments, 0.8);
  Rng draw_rng(0x5EED);
  const std::vector<QueryId> queries = ssb::AllQueries();
  std::vector<ScheduleEntry> schedule;
  for (size_t i = 0; i < kWarmup + kMeasured; ++i) {
    ScheduleEntry entry;
    entry.query = queries[i % queries.size()];
    entry.segment = rank_to_segment[zipf.Sample(draw_rng)];
    entry.begin = entry.segment * segment_tuples;
    entry.end = entry.begin + segment_tuples;
    schedule.push_back(entry);
  }
  return schedule;
}

struct ScheduleResult {
  std::vector<double> seconds;            // measured entries only
  std::vector<ssb::QueryOutput> outputs;  // measured entries only
  double total_seconds = 0.0;
  size_t migrations = 0;
  std::vector<std::string> actuator_log;
  tiering::TieringSnapshot final_placement;
  bool ok = true;
};

/// Runs the whole schedule on one engine under `policy`. The first
/// kWarmup entries run unmeasured (they converge the closed loop); every
/// later entry records modeled seconds and the query output.
ScheduleResult RunSchedule(const ssb::Database& db,
                           const MemSystemModel& model,
                           const std::vector<ScheduleEntry>& schedule,
                           tiering::TierPolicy policy,
                           double project_to_sf) {
  ScheduleResult result;
  tiering::TierManager manager(&model, ManagerConfig(db, policy));
  EngineConfig config = BaseConfig(project_to_sf);
  config.tiering = &manager;
  SsbEngine engine(&db, &model, config);
  Status prepared = engine.Prepare();
  if (!prepared.ok()) {
    std::printf("  Prepare failed: %s\n", prepared.ToString().c_str());
    ++g_failures;
    result.ok = false;
    return result;
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduleEntry& entry = schedule[i];
    qos::QueryOptions options;
    options.scan_begin = entry.begin;
    options.scan_end = entry.end;
    Result<SsbEngine::QueryRun> run = engine.Execute(entry.query, options);
    if (!run.ok()) {
      std::printf("  entry %zu (%s) failed: %s\n", i,
                  ssb::QueryName(entry.query).c_str(),
                  run.status().ToString().c_str());
      ++g_failures;
      result.ok = false;
      return result;
    }
    if (i >= kWarmup) {
      result.seconds.push_back(run->seconds);
      result.outputs.push_back(run->output);
      result.total_seconds += run->seconds;
    }
  }
  result.actuator_log = manager.actuator_log();
  for (const std::string& line : result.actuator_log) {
    if (line.find("migrate e") != std::string::npos) ++result.migrations;
  }
  result.final_placement = manager.snapshot();
  return result;
}

/// Paired per-entry geomean speedup of `slow` over `fast`.
double GeomeanSpeedup(const ScheduleResult& slow,
                      const ScheduleResult& fast) {
  std::vector<double> speedups;
  for (size_t i = 0;
       i < slow.seconds.size() && i < fast.seconds.size(); ++i) {
    speedups.push_back(slow.seconds[i] / fast.seconds[i]);
  }
  return GeoMean(speedups);
}

/// Fraction of measured Zipf mass resident off-SSD in the final
/// placement — the coverage number that explains the speedup.
double FastTierCoverage(const ScheduleResult& result,
                        const std::vector<ScheduleEntry>& schedule) {
  if (result.final_placement.empty()) return 0.0;
  uint64_t fast = 0;
  uint64_t total = 0;
  for (size_t i = kWarmup; i < schedule.size(); ++i) {
    tiering::TieringSnapshot::TupleShare share =
        result.final_placement.SplitTuples(schedule[i].begin,
                                           schedule[i].end);
    fast += share.dram + share.pmem;
    total += share.total();
  }
  return total == 0 ? 0.0 : static_cast<double>(fast) /
                                static_cast<double>(total);
}

// ---------------------------------------------------------------------
// Part 1: the skewed placement sweep at sf 50.
// ---------------------------------------------------------------------

struct SweepSummary {
  double vs_static = 0.0;
  double vs_lru = 0.0;
};

SweepSummary RunSkewSweep(const ssb::Database& db,
                          const MemSystemModel& model,
                          const std::vector<ScheduleEntry>& schedule,
                          std::ofstream& json) {
  std::printf(
      "\n[1] Zipf(0.8) segment schedule at sf 50: closed loop vs static "
      "vs LRU\n");
  const ScheduleResult closed =
      RunSchedule(db, model, schedule, tiering::TierPolicy::kClosedLoop,
                  50.0);
  const ScheduleResult fixed =
      RunSchedule(db, model, schedule, tiering::TierPolicy::kStatic, 50.0);
  const ScheduleResult lru =
      RunSchedule(db, model, schedule, tiering::TierPolicy::kLru, 50.0);
  SweepSummary summary;
  if (!closed.ok || !fixed.ok || !lru.ok) {
    Claim(false, "all three policies completed the schedule");
    return summary;
  }

  TablePrinter table({"Policy", "Total [s]", "Geomean vs closed",
                      "Migrations", "Hot coverage"});
  const double cov_closed = FastTierCoverage(closed, schedule);
  const double cov_fixed = FastTierCoverage(fixed, schedule);
  const double cov_lru = FastTierCoverage(lru, schedule);
  table.AddRow({"closed-loop", F3(closed.total_seconds), "1.000x",
                std::to_string(closed.migrations), F3(cov_closed)});
  table.AddRow({"static", F3(fixed.total_seconds),
                F3(GeomeanSpeedup(fixed, closed)) + "x",
                std::to_string(fixed.migrations), F3(cov_fixed)});
  table.AddRow({"lru", F3(lru.total_seconds),
                F3(GeomeanSpeedup(lru, closed)) + "x",
                std::to_string(lru.migrations), F3(cov_lru)});
  table.Print();

  summary.vs_static = GeomeanSpeedup(fixed, closed);
  summary.vs_lru = GeomeanSpeedup(lru, closed);
  Claim(summary.vs_static >= 1.3,
        "closed loop >= 1.30x geomean over the static overflow layout "
        "(measured " + F3(summary.vs_static) + "x)");
  Claim(summary.vs_lru >= 1.1,
        "closed loop >= 1.10x geomean over LRU placement (measured " +
            F3(summary.vs_lru) + "x)");
  bool identical = closed.outputs == fixed.outputs &&
                   closed.outputs == lru.outputs;
  Claim(identical && !closed.outputs.empty(),
        "every measured execution bit-identical across the three "
        "policies (placement prices traffic, never changes results)");
  Claim(fixed.migrations == 0,
        "the static baseline never migrates (the frozen pre-tiering "
        "layout)");
  Claim(closed.migrations > 0,
        "the closed loop promoted hot extents (" +
            std::to_string(closed.migrations) + " migrations)");

  json << "  \"skew\": {\n"
       << "    \"geomean_vs_static\": " << summary.vs_static << ",\n"
       << "    \"geomean_vs_lru\": " << summary.vs_lru << ",\n"
       << "    \"closed_total_seconds\": " << closed.total_seconds << ",\n"
       << "    \"static_total_seconds\": " << fixed.total_seconds << ",\n"
       << "    \"lru_total_seconds\": " << lru.total_seconds << ",\n"
       << "    \"closed_migrations\": " << closed.migrations << ",\n"
       << "    \"lru_migrations\": " << lru.migrations << ",\n"
       << "    \"closed_hot_coverage\": " << cov_closed << ",\n"
       << "    \"static_hot_coverage\": " << cov_fixed << "\n  },\n";
  return summary;
}

// ---------------------------------------------------------------------
// Part 2: full-table bit identity and off-path exactness.
// ---------------------------------------------------------------------

void RunIdentity(const ssb::Database& db, const MemSystemModel& model,
                 const ssb::ReferenceExecutor& reference,
                 std::ofstream& json) {
  std::printf(
      "\n[2] Full-table identity: tiering on vs off vs reference\n");
  SsbEngine off(&db, &model, BaseConfig(50.0));
  tiering::TierManager tiered_manager(
      &model, ManagerConfig(db, tiering::TierPolicy::kClosedLoop));
  EngineConfig tiered_config = BaseConfig(50.0);
  tiered_config.tiering = &tiered_manager;
  SsbEngine tiered(&db, &model, tiered_config);

  // The off-path witness: a manager whose PMEM budget holds the whole
  // table degenerates to the single PMEM scan record of the pre-tiering
  // engine, so its modeled seconds must match to the last bit.
  tiering::TieringConfig all_pmem_config;
  all_pmem_config.extent_tuples = 1024;
  all_pmem_config.pmem_budget_bytes =
      2 * db.lineorder.size() * sizeof(ssb::LineorderRow);
  tiering::TierManager all_pmem_manager(&model, all_pmem_config);
  EngineConfig all_pmem = BaseConfig(50.0);
  all_pmem.tiering = &all_pmem_manager;
  SsbEngine witness(&db, &model, all_pmem);

  if (!off.Prepare().ok() || !tiered.Prepare().ok() ||
      !witness.Prepare().ok()) {
    Claim(false, "all three engines prepared");
    return;
  }
  int verified = 0;
  int off_exact = 0;
  const int total = static_cast<int>(ssb::AllQueries().size());
  for (QueryId query : ssb::AllQueries()) {
    Result<SsbEngine::QueryRun> a = off.Execute(query);
    Result<SsbEngine::QueryRun> b = tiered.Execute(query);
    Result<SsbEngine::QueryRun> c = witness.Execute(query);
    if (!a.ok() || !b.ok() || !c.ok()) {
      std::printf("  %s failed\n", ssb::QueryName(query).c_str());
      ++g_failures;
      return;
    }
    const ssb::QueryOutput expected = reference.Execute(query);
    if (a->output == expected && b->output == expected &&
        c->output == expected) {
      ++verified;
    }
    if (c->seconds == a->seconds) ++off_exact;
  }
  std::printf("  %d/%d queries verified, %d/%d off-path exact\n", verified,
              total, off_exact, total);
  Claim(verified == total,
        "13/13 queries bit-identical: tiered, untiered, and reference "
        "agree");
  Claim(off_exact == total,
        "an all-PMEM manager reproduces the tiering-off modeled seconds "
        "exactly on all 13 queries");
  json << "  \"identity\": {\n    \"verified\": " << verified
       << ",\n    \"off_exact\": " << off_exact << "\n  },\n";
}

// ---------------------------------------------------------------------
// Part 3: the sf 100 projection.
// ---------------------------------------------------------------------

void RunSf100(const ssb::Database& db, const MemSystemModel& model,
              const std::vector<ScheduleEntry>& schedule,
              std::ofstream& json) {
  std::printf("\n[3] The same schedule projected to sf 100\n");
  const ScheduleResult closed =
      RunSchedule(db, model, schedule, tiering::TierPolicy::kClosedLoop,
                  100.0);
  const ScheduleResult fixed =
      RunSchedule(db, model, schedule, tiering::TierPolicy::kStatic,
                  100.0);
  if (!closed.ok || !fixed.ok) {
    Claim(false, "both policies completed the sf 100 schedule");
    return;
  }
  const double vs_static = GeomeanSpeedup(fixed, closed);
  std::printf("  closed %.3fs vs static %.3fs; geomean %.3fx\n",
              closed.total_seconds, fixed.total_seconds, vs_static);
  Claim(vs_static >= 1.2,
        "the placement win holds at sf 100 (>= 1.20x geomean, measured " +
            F3(vs_static) + "x)");
  Claim(closed.outputs == fixed.outputs,
        "sf 100 executions stay bit-identical across policies");
  json << "  \"sf100\": {\n    \"geomean_vs_static\": " << vs_static
       << ",\n    \"closed_total_seconds\": " << closed.total_seconds
       << ",\n    \"static_total_seconds\": " << fixed.total_seconds
       << "\n  },\n";
}

// ---------------------------------------------------------------------
// Part 4: actuator-log determinism.
// ---------------------------------------------------------------------

void RunDeterminism(const ssb::Database& db, const MemSystemModel& model,
                    const std::vector<ScheduleEntry>& schedule,
                    std::ofstream& json) {
  std::printf("\n[4] Actuator-log determinism (diff of two fresh runs)\n");
  std::vector<std::vector<std::string>> logs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ScheduleResult run = RunSchedule(
        db, model, schedule, tiering::TierPolicy::kClosedLoop, 50.0);
    if (!run.ok) {
      Claim(false, "determinism run completed");
      return;
    }
    logs.push_back(run.actuator_log);
  }
  const bool identical = logs[0] == logs[1];
  std::printf("  %zu actuator-log lines per run\n", logs[0].size());
  Claim(identical && !logs[0].empty(),
        "two fresh same-seed runs produced byte-identical actuator logs");
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
      "Three-tier DRAM/PMEM/SSD placement on larger-than-memory SSB",
      "perf extension; tiering semantics per DESIGN.md section 18 "
      "(ROADMAP item 3: sf 50/100 working sets overflow DRAM+PMEM to a "
      "modeled NVMe tier)",
      "The closed heat/placement loop beats the static overflow layout "
      "(>= 1.3x geomean) and LRU (>= 1.1x) under Zipf 0.8 skew, keeps "
      "every query bit-identical, and actuates deterministically");

  auto db = ssb::Generate({.scale_factor = sf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&db.value());
  const std::vector<ScheduleEntry> schedule = MakeSchedule(db.value());
  std::printf(
      "\nFunctional execution at sf %.2f (%zu lineorder tuples), %zu "
      "warmup + %zu measured executions over %llu segments.\n",
      sf, db->lineorder.size(), kWarmup, kMeasured,
      static_cast<unsigned long long>(kSegments));

  std::ofstream json("BENCH_tiering.json");
  json << "{\n  \"bench\": \"tiering\",\n  \"scale_factor\": " << sf
       << ",\n";
  RunSkewSweep(db.value(), model, schedule, json);
  RunIdentity(db.value(), model, reference, json);
  RunSf100(db.value(), model, schedule, json);
  RunDeterminism(db.value(), model, schedule, json);
  return FinishScorecard(json, "tiering");
}
