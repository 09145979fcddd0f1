// Fault injection and graceful degradation: the PMEM-aware SSB engine on
// a platform with injected media poison, thermal-throttle windows, UPI
// degradation and allocation failures.
//
// For every fault intensity (healthy .. extreme) the engine executes all
// 13 SSB queries against guarded PMEM state. Results must stay
// bit-identical to the fault-free reference — the faults cost bandwidth
// (throttled service rates, degraded UPI, retry/scrub/failover overhead),
// never correctness. The sweep reports Q2.1 throughput degradation plus
// the injector's recovery evidence, then demonstrates the scrubber on the
// row image fault mode reads and the scheduler's degraded-bandwidth
// re-planning.
#include <cstring>

#include "bench_util.h"
#include "core/scheduler.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

constexpr double kFunctionalSf = 0.02;
constexpr double kProjectSf = 100.0;
// Platform time at which the sweep runs — inside every preset's throttle
// window, so thermal degradation is active.
constexpr double kPlatformTime = 5.0;

struct SweepRow {
  std::string name;
  double q21_seconds = 0.0;
  double q21_healthy_seconds = 0.0;
  double total_seconds = 0.0;
  double recovery_seconds = 0.0;
  int verified = 0;
  FaultCounters counters;
};

void RunSweep(const ssb::Database& db,
              const ssb::ReferenceExecutor& reference) {
  const MemSystemConfig base_config;
  std::vector<SweepRow> rows;
  double healthy_q21 = 0.0;

  for (int intensity = 0; intensity < kNumFaultIntensities; ++intensity) {
    FaultInjector injector(FaultSpec::Preset(intensity));
    injector.AdvanceTo(kPlatformTime);

    // The degraded model: healthy config + active throttle windows + UPI
    // capacity loss, exactly what FaultInjector::Degrade derives.
    MemSystemModel model(injector.Degrade(base_config));
    PmemSpace space(model.config().topology);
    injector.Arm(&space);
    FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

    EngineConfig config;
    config.mode = EngineMode::kPmemAware;
    config.media = Media::kPmem;
    config.threads = 36;
    config.project_to_sf = kProjectSf;
    config.fault = &domain;
    SsbEngine engine(&db, &model, config);
    Status prepared = engine.Prepare();
    if (!prepared.ok()) {
      std::printf("[%s] Prepare failed: %s\n",
                  FaultIntensityName(intensity),
                  prepared.ToString().c_str());
      continue;
    }

    SweepRow row;
    row.name = FaultIntensityName(intensity);
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> run = engine.Execute(query);
      if (!run.ok()) {
        std::printf("[%s] %s failed: %s\n", row.name.c_str(),
                    ssb::QueryName(query).c_str(),
                    run.status().ToString().c_str());
        continue;
      }
      if (run->output == reference.Execute(query)) ++row.verified;
      row.total_seconds += run->seconds;
      if (query == QueryId::kQ2_1) row.q21_seconds = run->seconds;
    }
    row.recovery_seconds = injector.ModeledRecoverySeconds();
    row.counters = injector.counters();
    if (intensity == 0) healthy_q21 = row.q21_seconds;
    row.q21_healthy_seconds = healthy_q21;
    rows.push_back(std::move(row));
  }

  TablePrinter table({"Intensity", "Q2.1 [s]", "Q2.1 [qry/s]", "vs healthy",
                      "13-qry [s]", "Recovery [s]", "Verified"});
  for (const SweepRow& row : rows) {
    const double effective =
        row.q21_seconds + row.recovery_seconds / 13.0;
    table.AddRow(
        {row.name, TablePrinter::Cell(row.q21_seconds, 3),
         TablePrinter::Cell(effective > 0.0 ? 1.0 / effective : 0.0, 3),
         TablePrinter::Cell(row.q21_healthy_seconds > 0.0
                                ? row.q21_seconds / row.q21_healthy_seconds
                                : 1.0,
                            2),
         TablePrinter::Cell(row.total_seconds, 2),
         TablePrinter::Cell(row.recovery_seconds, 6),
         std::to_string(row.verified) + "/13"});
  }
  table.Print();

  std::printf("\nInjection and recovery evidence per intensity:\n");
  TablePrinter evidence({"Intensity", "Poisoned", "Transient", "Retries",
                         "Clears", "CRC fail", "Repaired", "Failovers",
                         "Alloc fail"});
  for (const SweepRow& row : rows) {
    evidence.AddRow({row.name, TablePrinter::Cell(row.counters.lines_poisoned),
                     TablePrinter::Cell(row.counters.transient_lines_poisoned),
                     TablePrinter::Cell(row.counters.retries),
                     TablePrinter::Cell(row.counters.transient_clears),
                     TablePrinter::Cell(row.counters.crc_failures),
                     TablePrinter::Cell(row.counters.chunks_repaired),
                     TablePrinter::Cell(row.counters.failovers),
                     TablePrinter::Cell(row.counters.allocations_failed)});
  }
  evidence.Print();
}

void RunRowScrubDemo(const ssb::Database& db) {
  std::printf(
      "\nRow-image scrubber: CRC32-chunked fact rows on poisoned PMEM\n");
  FaultInjector injector(FaultSpec::Preset(3));
  MemSystemModel model(injector.Degrade(MemSystemConfig()));
  PmemSpace space(model.config().topology);
  injector.Arm(&space);

  // The image fault mode reads: lineorder's 128 B rows, striped and
  // CRC-chunked, with db as the repair source.
  constexpr uint64_t kRowBytes = sizeof(ssb::LineorderRow);
  const auto* source = reinterpret_cast<const std::byte*>(db.lineorder.data());
  Result<std::unique_ptr<GuardedTable>> guarded = GuardedTable::Create(
      &space, &injector, source, db.lineorder.size() * kRowBytes,
      GuardedTable::Options());
  if (!guarded.ok()) {
    std::printf("guard failed: %s\n", guarded.status().ToString().c_str());
    return;
  }
  // A scan windowed to the first half reads its rows one at a time, in
  // ascending order, as fault mode does; ScrubAll then repairs the chunks
  // the window never touched.
  std::vector<ssb::LineorderRow> window(db.lineorder.size() / 2);
  auto* dst = reinterpret_cast<std::byte*>(window.data());
  Status read;
  for (uint64_t row = 0; row < window.size() && read.ok(); ++row) {
    read = (*guarded)->Read(row * kRowBytes, kRowBytes, dst + row * kRowBytes);
  }
  Result<uint64_t> repaired = (*guarded)->ScrubAll();
  if (!read.ok() || !repaired.ok()) {
    std::printf("read/scrub failed\n");
    return;
  }
  const bool identical =
      std::memcmp(dst, source, window.size() * kRowBytes) == 0;
  FaultCounters c = injector.counters();
  std::printf(
      "  windowed read of %zu rows %s vs the in-DRAM rows, %llu lines "
      "poisoned, %llu chunks scrubbed, %llu repaired from source (%llu via "
      "the read, %llu via ScrubAll)\n",
      window.size(), identical ? "bit-identical" : "MISMATCH",
      static_cast<unsigned long long>(c.lines_poisoned),
      static_cast<unsigned long long>(c.chunks_scrubbed),
      static_cast<unsigned long long>(c.chunks_repaired),
      static_cast<unsigned long long>(c.chunks_repaired - repaired.value()),
      static_cast<unsigned long long>(repaired.value()));
}

void RunSchedulerDemo() {
  std::printf(
      "\nDegraded-bandwidth re-planning: serialize-vs-mix under a thermal "
      "throttle window\n");
  MemSystemModel healthy;
  FaultInjector injector(FaultSpec::Preset(3));
  injector.AdvanceTo(kPlatformTime);
  MemSystemModel degraded(injector.Degrade(healthy.config()));

  MixedJobs jobs;
  jobs.read_bytes = 64 * kGiB;
  jobs.write_bytes = 16 * kGiB;
  MixedWorkloadScheduler scheduler(&healthy);
  Result<ScheduleDecision> plan = scheduler.Decide(jobs);
  Result<ScheduleDecision> replan = scheduler.DecideDegraded(jobs, &degraded);
  if (!plan.ok() || !replan.ok()) {
    std::printf("scheduling failed\n");
    return;
  }
  std::printf("  healthy plan: %s (serial %.2f s, mixed %.2f s)\n",
              plan->serialize ? "serialize" : "mix", plan->serial_seconds,
              plan->mixed_seconds);
  std::printf(
      "  degraded re-plan: %s (serial %.2f s, mixed %.2f s, healthy "
      "makespan %.2f s)\n",
      replan->serialize ? "serialize" : "mix", replan->serial_seconds,
      replan->mixed_seconds, replan->healthy_seconds);
  std::printf("  rationale: %s\n", replan->rationale.c_str());
}

}  // namespace

int main() {
  PrintHeader(
      "Fault injection and graceful degradation on the modeled platform",
      "robustness extension; fault classes per Optane deployment reports",
      "All 13 SSB queries return bit-identical results at every fault "
      "intensity; faults cost bandwidth (throttle, UPI, retry/scrub/"
      "failover), never correctness");

  auto db = ssb::Generate({.scale_factor = kFunctionalSf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ssb::ReferenceExecutor reference(&db.value());
  std::printf(
      "\nFunctional execution at sf %.2f (%zu lineorder tuples) on guarded "
      "PMEM state; runtimes projected to sf %.0f through the degraded "
      "memory-system model at platform time t=%.0f s.\n",
      kFunctionalSf, db->lineorder.size(), kProjectSf, kPlatformTime);

  RunSweep(db.value(), reference);
  RunRowScrubDemo(db.value());
  RunSchedulerDemo();
  return 0;
}
