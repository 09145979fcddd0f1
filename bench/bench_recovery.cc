// Crash-consistent ingest scorecard: append-protocol pricing, recovery
// time vs committed bytes, an exhaustive crash-point sweep, and the
// durability tax on SSB queries under the bandwidth governor.
//
// Four demonstrations, each with explicit pass/fail claims (the binary
// exits nonzero when a claim fails, so CI catches regressions):
//
//   1. Append-protocol pricing: the ntstore append prices below the
//      cached store+clwb path (van Renen et al.'s flush-choice result),
//      both scale with the epoch payload, and each ingested byte is
//      written to PMEM once behind two fences per epoch.
//   2. Recovery time vs committed bytes: recovering 16x more committed
//      epochs costs proportionally more modeled time (the commit-log
//      scan and the payload CRC verification are linear in them).
//   3. Exhaustive crash sweep: killing the modeled process at EVERY
//      persistence boundary of a multi-epoch ingest (both write modes)
//      loses zero committed epochs, surfaces zero torn bytes to
//      readers, and converges to the same final table. The whole sweep
//      replays deterministically from its seed.
//   4. SSB durability tax under the governor: with ingest quiescent a
//      durable engine answers every query at the same modeled cost as
//      the in-memory engine; a standing ingest's writes price into
//      query runtimes. All runs bit-identical to the reference.
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"
#include "engine/engine.h"
#include "governor/governor.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

std::vector<std::byte> PatternBytes(uint64_t size, int salt) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xFF);
  }
  return bytes;
}

// ---------------------------------------------------------------------
// Part 1: append-protocol pricing (ntstore vs store+clwb writes).
// ---------------------------------------------------------------------

/// What `epochs` Appends of `epoch_bytes` each cost, per epoch.
struct IngestCost {
  double seconds = 0.0;           ///< modeled persistence seconds
  double write_amp = 0.0;         ///< PMEM bytes stored / bytes ingested
  double fences_per_epoch = 0.0;  ///< sfences, both regions
};

IngestCost MeasureIngest(bool ntstore, int epochs, uint64_t epoch_bytes) {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  DurableTable::Options options;
  options.capacity_bytes = 16 * kMiB;
  options.log_bytes = 32 * kMiB;
  options.ntstore = ntstore;
  auto table = DurableTable::Create(&space, nullptr, options);
  if (!table.ok()) {
    ++g_failures;
    return {};
  }
  for (int e = 1; e <= epochs; ++e) {
    std::vector<std::byte> payload = PatternBytes(epoch_bytes, e);
    if (!(*table)->Append(payload.data(), payload.size()).ok()) {
      ++g_failures;
      return {};
    }
  }
  const PersistentRegion& image = (*table)->table_region();
  const PersistentRegion& log = (*table)->log_region();
  IngestCost cost;
  cost.seconds = (*table)->modeled_seconds() / epochs;
  cost.write_amp =
      static_cast<double>((image.store_lines() + log.store_lines()) *
                          kCacheLineBytes) /
      static_cast<double>(epochs * epoch_bytes);
  cost.fences_per_epoch =
      static_cast<double>(image.fences() + log.fences()) / epochs;
  return cost;
}

void RunAppendPricing(std::ofstream& json) {
  std::printf("\n[1] Append-protocol pricing: ntstore vs store+clwb\n");
  TablePrinter table({"Epoch bytes", "ntstore [us/epoch]", "clwb [us/epoch]",
                      "clwb/ntstore", "ntstore write amp",
                      "ntstore fences/epoch"});
  bool ntstore_wins = true;
  bool scales = true;
  double prev_nt = 0.0;
  IngestCost streaming;  // the ntstore 64 KiB ingest (last row)
  std::vector<std::pair<uint64_t, std::pair<double, double>>> rows;
  for (uint64_t bytes : {uint64_t{256}, uint64_t{4} * kKiB,
                         uint64_t{64} * kKiB}) {
    const int epochs = 16;
    streaming = MeasureIngest(true, epochs, bytes);
    double nt = streaming.seconds;
    double clwb = MeasureIngest(false, epochs, bytes).seconds;
    table.AddRow({std::to_string(bytes), F3(nt * 1e6), F3(clwb * 1e6),
                  F3(clwb / nt) + "x", F3(streaming.write_amp),
                  F3(streaming.fences_per_epoch)});
    ntstore_wins &= nt < clwb;
    scales &= nt > prev_nt;
    prev_nt = nt;
    rows.push_back({bytes, {nt, clwb}});
  }
  table.Print();
  Claim(ntstore_wins,
        "the streaming ntstore append prices below store+clwb at every "
        "epoch size (the cached path pays the read-allocate)");
  Claim(scales, "append cost grows with the epoch payload");
  Claim(streaming.write_amp < 1.05,
        "each ingested byte is written to PMEM once (64 KiB epochs: write "
        "amplification " + F3(streaming.write_amp) + ")");
  Claim(streaming.fences_per_epoch == 2.0,
        "one payload fence and one commit fence per epoch (measured " +
            F3(streaming.fences_per_epoch) + ")");

  json << "  \"append_pricing\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json << ", ";
    json << "{\"epoch_bytes\": " << rows[i].first
         << ", \"ntstore_seconds\": " << rows[i].second.first
         << ", \"clwb_seconds\": " << rows[i].second.second << "}";
  }
  json << "],\n";
  json << "  \"ingest_cost\": {\"write_amp\": " << streaming.write_amp
       << ", \"fences_per_epoch\": " << streaming.fences_per_epoch << "},\n";
}

// ---------------------------------------------------------------------
// Part 2: recovery time vs committed bytes.
// ---------------------------------------------------------------------

void RunRecoveryScaling(std::ofstream& json) {
  std::printf("\n[2] Recovery time vs committed bytes\n");
  TablePrinter table({"Epochs", "Commit log [B]", "Verified [KiB]",
                      "Recovery [us]", "us/epoch"});
  std::vector<std::pair<int, double>> points;
  const uint64_t epoch_bytes = 4 * kKiB;
  for (int epochs : {8, 32, 128}) {
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    DurableTable::Options options;
    options.capacity_bytes = 16 * kMiB;
    options.log_bytes = 32 * kMiB;
    auto durable = DurableTable::Create(&space, nullptr, options);
    if (!durable.ok()) {
      ++g_failures;
      return;
    }
    for (int e = 1; e <= epochs; ++e) {
      std::vector<std::byte> payload = PatternBytes(epoch_bytes, e);
      if (!(*durable)->Append(payload.data(), payload.size()).ok()) {
        ++g_failures;
        return;
      }
    }
    Result<RecoveryStats> stats = (*durable)->Recover();
    if (!stats.ok() ||
        stats->committed_epoch != static_cast<uint64_t>(epochs)) {
      Claim(false, "recovery completed at " + std::to_string(epochs) +
                       " epochs");
      return;
    }
    table.AddRow({std::to_string(epochs),
                  std::to_string(stats->log_bytes_scanned),
                  std::to_string(stats->verified_bytes / kKiB),
                  F3(stats->modeled_seconds * 1e6),
                  F3(stats->modeled_seconds * 1e6 / epochs)});
    points.push_back({epochs, stats->modeled_seconds});
  }
  table.Print();
  const double ratio = points.back().second / points.front().second;
  Claim(points[0].second < points[1].second &&
            points[1].second < points[2].second,
        "recovery time grows with the committed bytes");
  Claim(ratio >= 8.0,
        "16x more committed epochs cost >= 8x to recover (measured " +
            F3(ratio) +
            "x: the commit-log scan and the payload verification are "
            "linear in them)");

  json << "  \"recovery_scaling\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) json << ", ";
    json << "{\"epochs\": " << points[i].first
         << ", \"recovery_seconds\": " << points[i].second << "}";
  }
  json << "],\n";
}

// ---------------------------------------------------------------------
// Part 3: exhaustive crash-point sweep.
// ---------------------------------------------------------------------

struct SweepOutcome {
  uint64_t boundaries = 0;
  uint64_t committed_lost = 0;  ///< acked epochs recovery failed to keep
  uint64_t torn_reads = 0;      ///< committed bytes that diverged
  uint64_t recover_failures = 0;
  uint64_t diverged_finals = 0;  ///< sweeps that missed the final table
  uint64_t oracle_dirty = 0;     ///< sweeps with persist-order violations
  std::vector<uint64_t> committed_per_boundary;
};

SweepOutcome SweepAllBoundaries(bool ntstore, uint64_t seed) {
  constexpr int kEpochs = 3;
  constexpr uint64_t kEpochBytes = 300;
  DurableTable::Options options;
  options.capacity_bytes = 64 * kKiB;
  options.log_bytes = 128 * kKiB;
  options.ntstore = ntstore;

  auto attempt_ingest = [&](DurableTable* table) {
    uint64_t acked = 0;
    for (int e = 1; e <= kEpochs; ++e) {
      std::vector<std::byte> payload = PatternBytes(kEpochBytes, e);
      if (table->Append(payload.data(), payload.size()).ok()) ++acked;
    }
    return acked;
  };

  SweepOutcome outcome;
  {  // Dry run: count the boundaries with the injector disarmed.
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    CrashInjector crash(seed, CrashPlan{/*boundary_index=*/-1});
    auto table = DurableTable::Create(&space, &crash, options);
    if (!table.ok() || attempt_ingest(table->get()) != kEpochs) {
      ++outcome.recover_failures;
      return outcome;
    }
    outcome.boundaries = crash.boundaries_seen();
  }

  for (uint64_t b = 0; b < outcome.boundaries; ++b) {
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    CrashInjector crash(seed, CrashPlan{static_cast<int64_t>(b)});
    auto table = DurableTable::Create(&space, &crash, options);
    if (!table.ok()) {
      ++outcome.recover_failures;
      continue;
    }
    uint64_t acked = attempt_ingest(table->get());
    Result<RecoveryStats> stats = (*table)->Recover();
    if (!stats.ok()) {
      ++outcome.recover_failures;
      continue;
    }
    uint64_t committed = (*table)->committed_epoch();
    outcome.committed_per_boundary.push_back(committed);
    if (committed < acked) outcome.committed_lost += acked - committed;

    auto verify = [&](uint64_t upto) {
      std::vector<std::byte> got(kEpochBytes);
      for (uint64_t e = 1; e <= upto; ++e) {
        std::vector<std::byte> expected =
            PatternBytes(kEpochBytes, static_cast<int>(e));
        if (!(*table)
                 ->ReadSnapshot(e, (e - 1) * kEpochBytes, kEpochBytes,
                                got.data())
                 .ok() ||
            std::memcmp(got.data(), expected.data(), kEpochBytes) != 0) {
          ++outcome.torn_reads;
        }
      }
    };
    verify(committed);

    // Resume ingest and require convergence to the full table.
    for (uint64_t e = committed + 1; e <= kEpochs; ++e) {
      std::vector<std::byte> payload =
          PatternBytes(kEpochBytes, static_cast<int>(e));
      if (!(*table)->Append(payload.data(), payload.size()).ok()) {
        ++outcome.diverged_finals;
        break;
      }
    }
    if ((*table)->committed_epoch() != kEpochs) {
      ++outcome.diverged_finals;
    } else {
      verify(kEpochs);
    }
    if (!(*table)->order_checker().clean()) ++outcome.oracle_dirty;
  }
  return outcome;
}

void RunCrashSweep(std::ofstream& json) {
  std::printf(
      "\n[3] Exhaustive crash-point sweep (seeded, both write modes)\n");
  TablePrinter table({"Write mode", "Boundaries", "Committed lost",
                      "Torn reads", "Diverged finals", "Oracle dirty"});
  uint64_t total_boundaries = 0;
  bool all_clean = true;
  for (bool ntstore : {true, false}) {
    SweepOutcome outcome = SweepAllBoundaries(ntstore, /*seed=*/0xBEEF);
    table.AddRow({ntstore ? "ntstore" : "store+clwb",
                  std::to_string(outcome.boundaries),
                  std::to_string(outcome.committed_lost),
                  std::to_string(outcome.torn_reads),
                  std::to_string(outcome.diverged_finals),
                  std::to_string(outcome.oracle_dirty)});
    total_boundaries += outcome.boundaries;
    all_clean &= outcome.committed_lost == 0 && outcome.torn_reads == 0 &&
                 outcome.recover_failures == 0 &&
                 outcome.diverged_finals == 0 && outcome.oracle_dirty == 0;
  }
  table.Print();
  Claim(all_clean,
        "every one of " + std::to_string(total_boundaries) +
            " crash points recovers with zero committed epochs lost, zero "
            "torn bytes surfaced, full re-ingest convergence and a clean "
            "persist-order oracle");

  // Determinism: the whole sweep replays from its seed.
  SweepOutcome first = SweepAllBoundaries(true, /*seed=*/0x5EED);
  SweepOutcome second = SweepAllBoundaries(true, /*seed=*/0x5EED);
  Claim(first.committed_per_boundary == second.committed_per_boundary &&
            !first.committed_per_boundary.empty(),
        "the sweep's per-boundary outcomes replay bit-identically from "
        "the seed");

  json << "  \"crash_sweep\": {\"boundaries\": " << total_boundaries
       << ", \"clean\": " << (all_clean ? "true" : "false") << "},\n";
}

// ---------------------------------------------------------------------
// Part 4: SSB durability tax under the governor.
// ---------------------------------------------------------------------

struct SsbSweep {
  std::vector<double> seconds;
  int verified = 0;
};

SsbSweep RunSsb(const ssb::Database& db, const MemSystemModel& model,
                const ssb::ReferenceExecutor& reference,
                DurableTable* durable) {
  governor::BandwidthGovernor governor(&model);
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.project_to_sf = 50.0;
  config.governor = &governor;
  config.durable = durable;
  SsbEngine engine(&db, &model, config);
  SsbSweep sweep;
  if (!engine.Prepare().ok()) {
    ++g_failures;
    return sweep;
  }
  if (durable != nullptr) {
    // Ingest the whole lineorder prefix in 8 epochs.
    const uint64_t total = db.lineorder.size();
    const uint64_t batch = (total + 7) / 8;
    for (uint64_t offset = 0; offset < total; offset += batch) {
      uint64_t count = std::min(batch, total - offset);
      if (!engine.Ingest(db.lineorder.data() + offset, count).ok()) {
        ++g_failures;
        return sweep;
      }
    }
  }
  for (QueryId query : ssb::AllQueries()) {
    // Two warmups commit the governor's hysteresis per query.
    for (int warmup = 0; warmup < 2; ++warmup) {
      if (!engine.Execute(query).ok()) {
        ++g_failures;
        return sweep;
      }
    }
    Result<SsbEngine::QueryRun> run = engine.Execute(query);
    if (!run.ok()) {
      ++g_failures;
      return sweep;
    }
    sweep.seconds.push_back(run->seconds);
    if (run->output == reference.Execute(query)) ++sweep.verified;
  }
  return sweep;
}

void RunSsbTax(const ssb::Database& db, const MemSystemModel& model,
               const ssb::ReferenceExecutor& reference, std::ofstream& json) {
  std::printf("\n[4] SSB durability tax under the governor\n");
  const uint64_t lineorder_bytes =
      db.lineorder.size() * sizeof(ssb::LineorderRow);
  DurableTable::Options options;
  options.capacity_bytes = (lineorder_bytes + kMiB) / kMiB * kMiB + kMiB;
  options.log_bytes = 2 * options.capacity_bytes + 8 * kMiB;

  const SsbSweep off = RunSsb(db, model, reference, nullptr);

  // Durable, ingest quiescent: drain the standing traffic before querying.
  SystemTopology topo = model.config().topology;
  PmemSpace idle_space{topo};
  auto idle_table = DurableTable::Create(&idle_space, nullptr, options);
  if (!idle_table.ok()) {
    Claim(false, "durable table creation");
    return;
  }
  // Ingest the full table, then drain the standing traffic so the query
  // sweep sees a durable table with no writes in flight.
  SsbSweep on_idle;
  {
    governor::BandwidthGovernor governor(&model);
    EngineConfig config;
    config.mode = EngineMode::kPmemAware;
    config.media = Media::kPmem;
    config.threads = 36;
    config.project_to_sf = 50.0;
    config.governor = &governor;
    config.durable = idle_table->get();
    SsbEngine engine(&db, &model, config);
    if (!engine.Prepare().ok()) {
      Claim(false, "durable engine Prepare");
      return;
    }
    const uint64_t total = db.lineorder.size();
    const uint64_t batch = (total + 7) / 8;
    for (uint64_t offset = 0; offset < total; offset += batch) {
      uint64_t count = std::min(batch, total - offset);
      if (!engine.Ingest(db.lineorder.data() + offset, count).ok()) {
        Claim(false, "durable ingest");
        return;
      }
    }
    (*idle_table)->DrainIngestTraffic();  // quiescent: no standing writes
    for (QueryId query : ssb::AllQueries()) {
      for (int warmup = 0; warmup < 2; ++warmup) {
        if (!engine.Execute(query).ok()) {
          Claim(false, "durable idle execute");
          return;
        }
      }
      Result<SsbEngine::QueryRun> run = engine.Execute(query);
      if (!run.ok()) {
        Claim(false, "durable idle execute");
        return;
      }
      on_idle.seconds.push_back(run->seconds);
      if (run->output == reference.Execute(query)) ++on_idle.verified;
    }
  }

  // Durable with a standing ingest: pending commit/payload writes ride
  // along.
  SystemTopology topo2 = model.config().topology;
  PmemSpace busy_space{topo2};
  auto busy_table = DurableTable::Create(&busy_space, nullptr, options);
  if (!busy_table.ok()) {
    Claim(false, "durable table creation");
    return;
  }
  const SsbSweep on_ingest = RunSsb(db, model, reference, busy_table->get());

  if (off.seconds.size() != 13 || on_idle.seconds.size() != 13 ||
      on_ingest.seconds.size() != 13) {
    Claim(false, "all 13 queries completed in all three configurations");
    return;
  }

  TablePrinter table({"Config", "Geomean [s]", "Verified"});
  const double g_off = GeoMean(off.seconds);
  const double g_idle = GeoMean(on_idle.seconds);
  const double g_busy = GeoMean(on_ingest.seconds);
  table.AddRow({"durability off", F3(g_off),
                std::to_string(off.verified) + "/13"});
  table.AddRow({"durable, ingest quiescent", F3(g_idle),
                std::to_string(on_idle.verified) + "/13"});
  table.AddRow({"durable, standing ingest", F3(g_busy),
                std::to_string(on_ingest.verified) + "/13"});
  table.Print();

  Claim(off.verified == 13 && on_idle.verified == 13 &&
            on_ingest.verified == 13,
        "all 13 queries bit-identical to the reference in every mode");
  const double idle_ratio = g_idle / g_off;
  Claim(idle_ratio > 0.999 && idle_ratio < 1.001,
        "with ingest quiescent, durability adds no query-time cost "
        "(ratio " + F3(idle_ratio) + "x)");
  Claim(g_busy > g_idle,
        "a standing ingest's writes price into query runtimes "
        "(tax " + F3(g_busy / g_idle) + "x)");

  json << "  \"ssb_tax\": {\"geomean_off\": " << g_off
       << ", \"geomean_durable_idle\": " << g_idle
       << ", \"geomean_durable_ingest\": " << g_busy << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) sf = 0.02;
  }

  PrintHeader(
      "Crash-consistent ingest: write-once durability and recovery",
      "robustness extension; persistence pricing per van Renen et al. "
      "(PAPERS.md), crash model per DESIGN.md section 14",
      "Every crash point recovers with zero committed loss and zero torn "
      "reads; each byte is written once; recovery scales with the "
      "committed bytes; durability is free at query "
      "time when ingest is quiescent");

  auto db = ssb::Generate({.scale_factor = sf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&db.value());
  std::printf("\nFunctional execution at sf %.2f (%zu lineorder tuples), "
              "modeled at sf 50.\n",
              sf, db->lineorder.size());

  std::ofstream json("BENCH_recovery.json");
  json << "{\n  \"bench\": \"recovery\",\n  \"scale_factor\": " << sf
       << ",\n";
  RunAppendPricing(json);
  RunRecoveryScaling(json);
  RunCrashSweep(json);
  RunSsbTax(db.value(), model, reference, json);
  return FinishScorecard(json, "recovery");
}
