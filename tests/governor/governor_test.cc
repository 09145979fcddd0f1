// BandwidthGovernor unit tests: knee detection against the model's own
// analytic optimum, the throttle invariance that lets the write knee be
// swept once, the staging rule (each probed structure priced on PMEM and
// on DRAM among the standing background; unprobed structures keep their
// placement), deterministic convergence on fixed telemetry traces,
// hysteresis behavior, and what a telemetry sample holds.
#include "governor/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/profile.h"
#include "governor/telemetry.h"
#include "memsys/mem_system.h"
#include "topo/pinning.h"

namespace pmemolap::governor {
namespace {

class GovernorTest : public ::testing::Test {
 protected:
  MemSystemModel model_;
};

/// Modeled bandwidth of `threads` workers pinned to cores on `socket`,
/// accessing that socket's PMEM with a warm directory — built straight
/// from the model so expectations are derived analytically, not copied
/// from the governor.
double PmemGbps(const MemSystemModel& model, OpType op, Pattern pattern,
                uint64_t access_size, uint64_t region_bytes, int socket,
                int threads) {
  ThreadPlacer placer(model.config().topology);
  Result<ThreadPlacement> placement =
      placer.Place(threads, PinningPolicy::kCores, socket);
  if (!placement.ok()) return 0.0;
  AccessClass klass;
  klass.op = op;
  klass.pattern = pattern;
  klass.media = Media::kPmem;
  klass.access_size = access_size;
  klass.placement = std::move(placement.value());
  klass.data_socket = socket;
  klass.region_bytes = region_bytes;
  klass.run_index = 2;
  WorkloadSpec spec;
  spec.classes.push_back(std::move(klass));
  return model.EvaluateOnce(spec).total_gbps;
}

/// The test's own Fig. 3/7-shaped sweep point: sequential 4 KiB PMEM
/// readers or writers.
double SweepGbps(const MemSystemModel& model, OpType op, int socket,
                 int threads) {
  return PmemGbps(model, op, Pattern::kSequentialIndividual, 4 * kKiB, 0,
                  socket, threads);
}

TEST_F(GovernorTest, WriteKneeMatchesAnalyticOptimum) {
  BandwidthGovernor governor(&model_);
  BandwidthGovernor::Knee knee = governor.WriteKnee();

  // The test derives its own expectations from the model: the sweep ramps
  // at <= w1 per thread and flattens once the DIMMs' write buffers fill
  // (Fig. 7's shape).
  const int max_threads =
      model_.config().topology.logical_cores_per_socket();
  double w1 = SweepGbps(model_, OpType::kWrite, 0, 1);
  ASSERT_GT(w1, 0.0);
  double peak = 0.0;
  int peak_threads = 0;
  for (int threads = 1; threads <= max_threads; ++threads) {
    double gbps = SweepGbps(model_, OpType::kWrite, 0, threads);
    EXPECT_LE(gbps, threads * w1 * (1.0 + 1e-9)) << threads;
    if (gbps > peak) {
      peak = gbps;
      peak_threads = threads;
    }
  }
  // Analytic lower bound: no fewer than ceil(0.98 * peak / w1) threads
  // can reach the tolerance band; and the knee never needs more threads
  // than the peak itself.
  int analytic_floor = static_cast<int>(std::ceil(0.98 * peak / w1));
  EXPECT_GE(knee.threads, analytic_floor);
  EXPECT_LE(knee.threads, peak_threads);

  // The knee delivers the peak (within tolerance); one thread fewer does
  // not — the defining property of the smallest sufficient thread count.
  double at_knee = SweepGbps(model_, OpType::kWrite, 0, knee.threads);
  double below = SweepGbps(model_, OpType::kWrite, 0, knee.threads - 1);
  EXPECT_GE(at_knee, 0.98 * peak);
  EXPECT_LT(below, 0.98 * peak);
  EXPECT_NEAR(knee.gbps, at_knee, 1e-9);
}

TEST_F(GovernorTest, WriteKneeLandsInThePaperClampRange) {
  // Fig. 7/8: sequential PMEM writes saturate around 4 threads; the
  // paper's BP2 clamp is 4-6. The governor's write knee must agree.
  BandwidthGovernor governor(&model_);
  BandwidthGovernor::Knee knee = governor.WriteKnee();
  EXPECT_GE(knee.threads, 3);
  EXPECT_LE(knee.threads, 6);

  double at_knee = SweepGbps(model_, OpType::kWrite, 0, knee.threads);
  double plateau = SweepGbps(
      model_, OpType::kWrite, 0,
      model_.config().topology.logical_cores_per_socket());
  EXPECT_GE(at_knee, 0.98 * plateau);
}

TEST_F(GovernorTest, ThrottleScalesTheKneeBandwidthNotItsThreadCount) {
  // Thermal throttling scales socket 0's DIMM service rate, and with it
  // the plateau of the sequential write sweep. The raw knee may move by a
  // thread (a throttled device saturates sooner: 3 instead of 4 threads
  // below a factor of ~0.83), so the knee's GB/s stays only within the
  // knee tolerance of factor x the healthy knee's; but the BP2 clamp
  // absorbs the move, and the clamped writer count is all Observe reads.
  // This is why the governor sweeps its write knee once, on the model it
  // is built on: if a calibration change ever lets a throttle move the
  // clamped writer count, this fails and the knee must follow the sampled
  // throttle again.
  const BandwidthGovernor healthy(&model_);
  const BandwidthGovernor::Knee base = healthy.WriteKnee();
  const int sockets = model_.config().topology.sockets();
  auto clamped = [](const BandwidthGovernor::Knee& knee) {
    return std::clamp(knee.threads, BestPracticesAdvisor::kMinWriteThreads,
                      BestPracticesAdvisor::kMaxWriteThreads);
  };
  for (int step = 1; step <= 100; ++step) {
    const double factor = step / 100.0;
    MemSystemConfig config = model_.config();
    config.pmem_service_factor.assign(static_cast<size_t>(sockets), 1.0);
    config.pmem_service_factor[0] = factor;
    const MemSystemModel throttled_model(config);
    const BandwidthGovernor throttled(&throttled_model);
    const BandwidthGovernor::Knee knee = throttled.WriteKnee();
    EXPECT_EQ(clamped(knee), clamped(base)) << "factor " << factor;
    EXPECT_GE(knee.gbps, (1.0 - kKneeTolerance) * factor * base.gbps)
        << "factor " << factor;
    EXPECT_LE(knee.gbps, factor * base.gbps / (1.0 - kKneeTolerance))
        << "factor " << factor;
  }
}

/// A probe record of `label` on socket 0's PMEM: 8 readers, random 64 B
/// over `region_bytes`.
TrafficRecord ProbeRecord(const std::string& label, uint64_t bytes,
                          uint64_t region_bytes) {
  TrafficRecord probe;
  probe.label = label;
  probe.op = OpType::kRead;
  probe.pattern = Pattern::kRandom;
  probe.media = Media::kPmem;
  probe.data_socket = 0;
  probe.threads = 8;
  probe.bytes = bytes;
  probe.access_size = 64;
  probe.region_bytes = region_bytes;
  return probe;
}

/// A synthetic quantum with one expensive PMEM probe: its staging target
/// is {"date"}.
TelemetrySample ProbeSample() {
  TelemetrySample sample;
  sample.query.push_back(ProbeRecord("probe-date", 4ull * kGiB, 256 * kMiB));
  return sample;
}

/// A quantum without traffic: it probes no structure.
TelemetrySample QuietSample() { return TelemetrySample(); }

/// `sample`'s probe as staging leaves it: served from DRAM.
TelemetrySample StagedSample(TelemetrySample sample) {
  sample.query[0].media = Media::kDram;
  return sample;
}

/// A standing ingest load on socket 0's PMEM: 18 sequential 4 KiB writers.
TrafficRecord IngestRecord() {
  TrafficRecord ingest;
  ingest.label = "ingest";
  ingest.op = OpType::kWrite;
  ingest.pattern = Pattern::kSequentialIndividual;
  ingest.media = Media::kPmem;
  ingest.data_socket = 0;
  ingest.threads = 18;
  ingest.bytes = 16ull * kGiB;
  ingest.access_size = 4 * kKiB;
  ingest.region_bytes = 64ull * kGiB;
  return ingest;
}

/// The test's own pricing of `probe` on `media` among the standing
/// `background` records: the probe's class in region 1000 evaluated with
/// the background's classes in regions 2000+, each from ToAccessClass.
double GbpsAmong(const MemSystemModel& model, TrafficRecord probe,
                 Media media, const std::vector<TrafficRecord>& background) {
  probe.media = media;
  WorkloadSpec spec;
  int region = 1000;
  std::vector<TrafficRecord> records = {probe};
  records.insert(records.end(), background.begin(), background.end());
  for (const TrafficRecord& record : records) {
    Result<AccessClass> klass = ToAccessClass(
        record, record.threads, PinningPolicy::kCores, model.config().topology);
    if (!klass.ok()) return 0.0;
    klass->region_id = region;
    region = region == 1000 ? 2000 : region + 1;
    spec.classes.push_back(std::move(klass.value()));
  }
  return model.EvaluateOnce(spec).per_class[0].gbps;
}

TEST_F(GovernorTest, StagedProbeStaysOnlyWhileDramBeatsItsPmemRate) {
  // A staged probe is judged as an unstaged one is: its record priced on
  // PMEM and on DRAM among the standing background only. Size the probe
  // so that benefit is 1% above the floor (it stays) or 1% below (it is
  // evicted after the hysteresis). A governor that priced without the
  // ingest, which slows only the PMEM side, would undercount the benefit
  // and evict the first probe too.
  TelemetrySample sample = ProbeSample();
  sample.background.push_back(IngestRecord());
  const TrafficRecord probe = sample.query[0];
  const std::vector<TrafficRecord> background = sample.background;
  const double pmem_gbps = GbpsAmong(model_, probe, Media::kPmem, background);
  const double dram_gbps = GbpsAmong(model_, probe, Media::kDram, background);
  ASSERT_GT(pmem_gbps, 0.0);
  ASSERT_GT(dram_gbps, pmem_gbps);
  ASSERT_LT(pmem_gbps,
            GbpsAmong(model_, probe, Media::kPmem, /*background=*/{}));
  const double benefit_per_byte = (1.0 / pmem_gbps - 1.0 / dram_gbps) / 1e9;
  for (double factor : {1.01, 0.99}) {
    BandwidthGovernor governor(&model_);
    for (int q = 0; q < kHysteresisQuanta; ++q) governor.Observe(sample);
    ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));

    TelemetrySample staged = StagedSample(sample);
    staged.query[0].bytes = static_cast<uint64_t>(
        factor * kStagingMinBenefitSeconds / benefit_per_byte);
    for (int q = 0; q < 2 * kHysteresisQuanta; ++q) governor.Observe(staged);
    EXPECT_EQ(governor.decision().IsStaged("date"), factor > 1.0) << factor;
  }
}

TEST_F(GovernorTest, UnprobedStructuresKeepTheirPlacement) {
  // No evidence, no move: neither a quiet quantum nor one that probes
  // only another structure unstages "date".
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta; ++q) governor.Observe(ProbeSample());
  ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  for (int q = 0; q < 3 * kHysteresisQuanta; ++q) {
    governor.Observe(QuietSample());
    EXPECT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  }
  TelemetrySample part = QuietSample();
  part.query.push_back(ProbeRecord("probe-part", 4ull * kGiB, 64 * kMiB));
  for (int q = 0; q < 3 * kHysteresisQuanta; ++q) {
    governor.Observe(part);
    EXPECT_TRUE(governor.decision().IsStaged("date")) << q;
  }
  EXPECT_EQ(governor.decision().staged,
            std::vector<std::string>({"date", "part"}));
}

TEST_F(GovernorTest, ProbedStructureBelowTheFloorLeavesAfterTheHysteresis) {
  // A sample that probes the staged structure and prices its benefit
  // under kStagingMinBenefitSeconds is the evidence that unstages it,
  // after exactly kHysteresisQuanta such quanta.
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta; ++q) governor.Observe(ProbeSample());
  ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  TelemetrySample faint = StagedSample(ProbeSample());
  faint.query[0].bytes = 64;  // saves nanoseconds per quantum
  for (int q = 0; q < kHysteresisQuanta - 1; ++q) {
    governor.Observe(faint);
    EXPECT_TRUE(governor.decision().IsStaged("date"))
        << "evicted too early at quantum " << q + 1;
  }
  governor.Observe(faint);
  EXPECT_TRUE(governor.decision().staged.empty());
  EXPECT_EQ(governor.decision().staged_bytes, 0u);
}

TEST_F(GovernorTest, StagedBytesFollowTheUnchangedSetsCurrentSize) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta; ++q) {
    governor.Observe(ProbeSample());
  }
  ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  EXPECT_EQ(governor.decision().staged_bytes, 256 * kMiB);
  // Same set, larger structure: only a change of set waits out the
  // hysteresis, so the footprint updates in the same quantum.
  TelemetrySample grown = ProbeSample();
  grown.query[0].region_bytes = 512 * kMiB;
  governor.Observe(grown);
  EXPECT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  EXPECT_EQ(governor.decision().staged_bytes, 512 * kMiB);
}

TEST_F(GovernorTest, StagedBytesCountAnUnprobedStructureAtItsLastSeenSize) {
  BandwidthGovernor governor(&model_);
  TelemetrySample grown = ProbeSample();
  grown.query[0].region_bytes = 512 * kMiB;
  for (int q = 0; q < kHysteresisQuanta; ++q) governor.Observe(ProbeSample());
  governor.Observe(grown);
  ASSERT_EQ(governor.decision().staged_bytes, 512 * kMiB);
  // "part" stages while "date" goes unprobed: the footprint holds "date"
  // at the 512 MiB it last showed.
  TelemetrySample part = QuietSample();
  part.query.push_back(ProbeRecord("probe-part", 4ull * kGiB, 64 * kMiB));
  for (int q = 0; q < kHysteresisQuanta; ++q) governor.Observe(part);
  ASSERT_EQ(governor.decision().staged,
            std::vector<std::string>({"date", "part"}));
  EXPECT_EQ(governor.decision().staged_bytes, 512 * kMiB + 64 * kMiB);
  governor.Observe(QuietSample());
  EXPECT_EQ(governor.decision().staged_bytes, 512 * kMiB + 64 * kMiB);
}

TEST_F(GovernorTest, FixedTraceConvergesIdenticallyAcrossInstances) {
  // Determinism acceptance: the same telemetry trace into two fresh
  // governors produces byte-identical actuator logs and equal decisions.
  std::vector<TelemetrySample> trace;
  for (int q = 0; q < 6; ++q) trace.push_back(ProbeSample());
  for (int q = 0; q < 3; ++q) trace.push_back(QuietSample());

  BandwidthGovernor a(&model_);
  BandwidthGovernor b(&model_);
  for (const TelemetrySample& sample : trace) {
    a.Observe(sample);
    b.Observe(sample);
  }
  EXPECT_EQ(a.actuator_log(), b.actuator_log());
  GovernorDecision da = a.decision();
  GovernorDecision db = b.decision();
  EXPECT_EQ(da.write_threads, db.write_threads);
  EXPECT_EQ(da.staged, db.staged);
  EXPECT_EQ(da.quantum, db.quantum);
  // The log records events only: the probe staged once and, with nothing
  // probing it in the quiet quanta, stays staged — one line per commit,
  // none per quantum.
  const std::vector<std::string> log = a.actuator_log();
  EXPECT_EQ(std::count_if(log.begin(), log.end(),
                          [](const std::string& line) {
                            return line.find(" commit staged ") !=
                                   std::string::npos;
                          }),
            1);
  EXPECT_EQ(da.staged, std::vector<std::string>({"date"}));
  for (const std::string& line : log) {
    EXPECT_NE(line.find(" commit "), std::string::npos) << line;
  }
}

TEST_F(GovernorTest, ConvergedDecisionClampsWritersAndStagesTheHotProbe) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta + 1; ++q) {
    governor.Observe(ProbeSample());
  }
  GovernorDecision decision = governor.decision();
  // Writers clamped to the write knee inside the BP2 window.
  EXPECT_EQ(decision.write_threads,
            std::clamp(governor.WriteKnee().threads,
                       BestPracticesAdvisor::kMinWriteThreads,
                       BestPracticesAdvisor::kMaxWriteThreads));
  // The expensive contended probe was promoted to DRAM.
  EXPECT_TRUE(decision.IsStaged("date"));
  EXPECT_GT(decision.staged_bytes, 0u);
}

TEST_F(GovernorTest, OneQuantumBlipDoesNotActuate) {
  // Hysteresis: a staging target that appears for a single quantum and
  // reverts never commits — no oscillation on noisy telemetry.
  BandwidthGovernor governor(&model_);
  ASSERT_GE(kHysteresisQuanta, 2);
  governor.Observe(ProbeSample());  // blip: wants the probe staged
  EXPECT_TRUE(governor.decision().staged.empty());
  governor.Observe(QuietSample());  // reverted before persisting
  governor.Observe(QuietSample());
  EXPECT_TRUE(governor.decision().staged.empty());
  for (const std::string& line : governor.actuator_log()) {
    EXPECT_EQ(line.find(" commit staged "), std::string::npos) << line;
  }
}

TEST_F(GovernorTest, CommitLandsExactlyAfterHysteresisQuanta) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta - 1; ++q) {
    governor.Observe(ProbeSample());
    EXPECT_TRUE(governor.decision().staged.empty())
        << "committed too early at quantum " << q + 1;
  }
  governor.Observe(ProbeSample());
  EXPECT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
}

TEST_F(GovernorTest, AblationSwitchesDisableActuators) {
  GovernorConfig config;
  config.stage_structures = false;
  config.shape_morsels = false;
  BandwidthGovernor governor(&model_, config);
  for (int q = 0; q < 5; ++q) governor.Observe(ProbeSample());
  GovernorDecision decision = governor.decision();
  EXPECT_TRUE(decision.staged.empty());
  EXPECT_EQ(decision.staged_bytes, 0u);
  // The writer clamp has no switch: writers still clamp to the knee.
  EXPECT_EQ(decision.write_threads,
            std::clamp(governor.WriteKnee().threads,
                       BestPracticesAdvisor::kMinWriteThreads,
                       BestPracticesAdvisor::kMaxWriteThreads));
  // Shaping off is what the engine reads from the governor's config.
  EXPECT_FALSE(governor.config().shape_morsels);
}

// --- telemetry --------------------------------------------------------------

TEST_F(GovernorTest, BuildTelemetryHoldsThePricedRecordsInOrder) {
  // The sample is the run's records as the timer prices them: the query's
  // in their order, then the background's, less the records that become
  // no model class. Staging sums each structure's benefit in this order
  // and counts every sampled probe as evidence, so this filter is what
  // keeps the staged set bit-identical.
  TrafficRecord scan;
  scan.label = "scan";
  scan.bytes = 8ull * kGiB;
  scan.region_bytes = 8ull * kGiB;
  scan.threads = 18;
  TrafficRecord far_scan = scan;
  far_scan.data_socket = 1;
  far_scan.worker_socket = 0;
  // Its workers sit on a socket the topology does not have.
  TrafficRecord unplaced = ProbeRecord("probe-part", kGiB, 64 * kMiB);
  unplaced.worker_socket = model_.config().topology.sockets();
  ASSERT_FALSE(ToAccessClass(unplaced, unplaced.threads,
                             PinningPolicy::kNumaRegion,
                             model_.config().topology)
                   .ok());
  const std::vector<TrafficRecord> query = {
      scan, unplaced, ProbeRecord("probe-date", kGiB, 256 * kMiB), far_scan};
  TrafficRecord idle = IngestRecord();
  idle.label = "idle";
  idle.bytes = 0;
  const std::vector<TrafficRecord> background = {idle, IngestRecord()};

  const TelemetrySample sample = BuildTelemetry(
      model_, query, background, PinningPolicy::kNumaRegion);
  EXPECT_EQ(sample.pinning, PinningPolicy::kNumaRegion);
  auto labels = [](const std::vector<TrafficRecord>& records) {
    std::vector<std::string> names;
    for (const TrafficRecord& record : records) names.push_back(record.label);
    return names;
  };
  EXPECT_EQ(labels(sample.query),
            std::vector<std::string>({"scan", "probe-date", "scan"}));
  EXPECT_EQ(labels(sample.background), std::vector<std::string>({"ingest"}));
  // A kept record is the input record, not one rebuilt from its class.
  ASSERT_EQ(sample.query.size(), 3u);
  EXPECT_EQ(sample.query[2].data_socket, 1);
  EXPECT_EQ(sample.query[2].worker_socket, 0);
  EXPECT_EQ(sample.query[1].region_bytes, 256 * kMiB);
  ASSERT_EQ(sample.background.size(), 1u);
  EXPECT_EQ(sample.background[0].bytes, 16ull * kGiB);
}

}  // namespace
}  // namespace pmemolap::governor
