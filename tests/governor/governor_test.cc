// BandwidthGovernor unit tests: knee detection against the model's own
// analytic optimum, the throttle invariance that lets the knees be swept
// once, deterministic convergence on fixed telemetry traces, hysteresis
// behavior, and the shared health signal with admission control.
#include "governor/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "governor/telemetry.h"
#include "memsys/mem_system.h"
#include "qos/admission.h"
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

TEST_F(GovernorTest, ReadKneeMatchesAnalyticOptimum) {
  BandwidthGovernor governor(&model_);
  BandwidthGovernor::Knee knee = governor.ReadKnee(0);

  // The test derives its own expectations from the model: the sweep ramps
  // at <= r1 per thread, peaks once the physical cores fill, and declines
  // under hyperthread oversubscription (Fig. 3's shape).
  const int max_threads =
      model_.config().topology.logical_cores_per_socket();
  double r1 = SweepGbps(model_, OpType::kRead, 0, 1);
  ASSERT_GT(r1, 0.0);
  double peak = 0.0;
  int peak_threads = 0;
  for (int threads = 1; threads <= max_threads; ++threads) {
    double gbps = SweepGbps(model_, OpType::kRead, 0, threads);
    EXPECT_LE(gbps, threads * r1 * (1.0 + 1e-9)) << threads;
    if (gbps > peak) {
      peak = gbps;
      peak_threads = threads;
    }
  }
  // Analytic lower bound: no fewer than ceil(0.98 * peak / r1) threads
  // can reach the tolerance band; and the knee never needs more threads
  // than the peak itself.
  int analytic_floor = static_cast<int>(std::ceil(0.98 * peak / r1));
  EXPECT_GE(knee.threads, analytic_floor);
  EXPECT_LE(knee.threads, peak_threads);

  // The knee delivers the peak (within tolerance); one thread fewer does
  // not — the defining property of the smallest sufficient reader count.
  double at_knee = SweepGbps(model_, OpType::kRead, 0, knee.threads);
  double below = SweepGbps(model_, OpType::kRead, 0, knee.threads - 1);
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
  // Thermal throttling scales a socket's DIMM service rate, so the whole
  // sequential sweep scales uniformly: the knee's thread count holds (the
  // relative tolerance band moves with the peak) while its bandwidth
  // scales by the factor. This is why the governor sweeps its knees once,
  // on the model it is built on, and reads only their thread counts: if a
  // calibration change ever lets a throttle move a knee, this fails and
  // the knees must follow the sampled throttle again.
  const BandwidthGovernor healthy(&model_);
  const int sockets = model_.config().topology.sockets();
  auto clamped = [](const BandwidthGovernor::Knee& knee) {
    return std::clamp(knee.threads, kMinWriteThreads, kMaxWriteThreads);
  };
  for (int step = 1; step <= 100; ++step) {
    const double factor = step / 100.0;
    for (int socket = 0; socket < sockets; ++socket) {
      MemSystemConfig config = model_.config();
      config.pmem_service_factor.assign(static_cast<size_t>(sockets), 1.0);
      config.pmem_service_factor[static_cast<size_t>(socket)] = factor;
      const MemSystemModel throttled_model(config);
      const BandwidthGovernor throttled(&throttled_model);
      const BandwidthGovernor::Knee base = healthy.ReadKnee(socket);
      const BandwidthGovernor::Knee knee = throttled.ReadKnee(socket);
      EXPECT_EQ(knee.threads, base.threads)
          << "factor " << factor << " socket " << socket;
      EXPECT_EQ(clamped(throttled.WriteKnee()), clamped(healthy.WriteKnee()))
          << "factor " << factor << " socket " << socket;
      EXPECT_NEAR(knee.gbps, factor * base.gbps, 1e-6 * factor * base.gbps)
          << "factor " << factor << " socket " << socket;
    }
  }
}

/// A synthetic quantum: per-socket write pressure plus one expensive PMEM
/// probe class, enough to engage all three hysteresis tracks.
TelemetrySample PressuredSample(double write_occupancy,
                                double dimm_factor = 1.0,
                                double upi_factor = 1.0) {
  TelemetrySample sample;
  sample.sockets.resize(2);
  for (SocketTelemetry& socket : sample.sockets) {
    socket.read_occupancy = 0.8;
    socket.write_occupancy = write_occupancy;
    socket.dimm_service_factor = dimm_factor;
  }
  sample.upi_capacity_factor = upi_factor;
  ClassTelemetry probe;
  probe.record.label = "probe-date";
  probe.record.op = OpType::kRead;
  probe.record.pattern = Pattern::kRandom;
  probe.record.media = Media::kPmem;
  probe.record.data_socket = 0;
  probe.record.threads = 8;
  probe.record.bytes = 4ull * kGiB;
  probe.record.access_size = 64;
  probe.record.region_bytes = 256 * kMiB;
  probe.gbps = 0.8;  // badly contended: DRAM staging clearly wins
  sample.classes.push_back(probe);
  return sample;
}

TEST_F(GovernorTest, StagedProbeStaysOnlyWhileDramBeatsItsPmemRate) {
  // Once staged, the probe reports from DRAM and is judged against its
  // PMEM counterfactual: 1% faster keeps it, 1% slower evicts it after
  // the hysteresis.
  // PressuredSample's probe class on PMEM: 8 readers on socket 0, random
  // 64 B over a 256 MiB region.
  const double pmem_gbps = PmemGbps(model_, OpType::kRead, Pattern::kRandom,
                                    64, 256 * kMiB, 0, 8);
  ASSERT_GT(pmem_gbps, 0.0);
  for (double factor : {1.01, 0.99}) {
    BandwidthGovernor governor(&model_);
    for (int q = 0; q < kHysteresisQuanta; ++q) {
      governor.Observe(PressuredSample(0.0));
    }
    ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));

    TelemetrySample staged = PressuredSample(0.0);
    staged.classes[0].record.media = Media::kDram;
    staged.classes[0].gbps = factor * pmem_gbps;
    for (int q = 0; q < kHysteresisQuanta - 1; ++q) {
      governor.Observe(staged);
      EXPECT_TRUE(governor.decision().IsStaged("date")) << factor;
    }
    governor.Observe(staged);
    EXPECT_EQ(governor.decision().IsStaged("date"), factor > 1.0) << factor;
  }
}

TEST_F(GovernorTest, StagedBytesFollowTheUnchangedSetsCurrentSize) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta; ++q) {
    governor.Observe(PressuredSample(0.0));
  }
  ASSERT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  EXPECT_EQ(governor.decision().staged_bytes, 256 * kMiB);
  // Same set, larger structure: only a change of set waits out the
  // hysteresis, so the footprint updates in the same quantum.
  TelemetrySample grown = PressuredSample(0.0);
  grown.classes[0].record.region_bytes = 512 * kMiB;
  governor.Observe(grown);
  EXPECT_EQ(governor.decision().staged, std::vector<std::string>({"date"}));
  EXPECT_EQ(governor.decision().staged_bytes, 512 * kMiB);
}

TEST_F(GovernorTest, FixedTraceConvergesIdenticallyAcrossInstances) {
  // Determinism acceptance: the same telemetry trace into two fresh
  // governors produces byte-identical actuator logs and equal decisions.
  std::vector<TelemetrySample> trace;
  for (int q = 0; q < 6; ++q) trace.push_back(PressuredSample(0.9));
  for (int q = 0; q < 3; ++q) trace.push_back(PressuredSample(0.0));

  BandwidthGovernor a(&model_);
  BandwidthGovernor b(&model_);
  for (const TelemetrySample& sample : trace) {
    a.Observe(sample);
    b.Observe(sample);
  }
  EXPECT_EQ(a.actuator_log(), b.actuator_log());
  GovernorDecision da = a.decision();
  GovernorDecision db = b.decision();
  EXPECT_EQ(da.read_workers, db.read_workers);
  EXPECT_EQ(da.write_threads, db.write_threads);
  EXPECT_EQ(da.staged, db.staged);
  EXPECT_EQ(da.quantum, db.quantum);
  EXPECT_FALSE(a.actuator_log().empty());
}

TEST_F(GovernorTest, WritePressureEngagesReaderCapsAndWriterClamp) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta + 1; ++q) {
    governor.Observe(PressuredSample(0.9));
  }
  GovernorDecision decision = governor.decision();
  // Readers capped at the modeled knee on every socket.
  ASSERT_EQ(decision.read_workers.size(), 2u);
  int knee = governor.ReadKnee(0).threads;
  EXPECT_EQ(decision.read_workers[0], knee);
  EXPECT_EQ(decision.read_workers[1], knee);
  // Writers clamped into the BP2 window.
  EXPECT_GE(decision.write_threads, kMinWriteThreads);
  EXPECT_LE(decision.write_threads, kMaxWriteThreads);
  // The expensive contended probe was promoted to DRAM.
  EXPECT_TRUE(decision.IsStaged("date"));
  EXPECT_GT(decision.staged_bytes, 0u);
}

TEST_F(GovernorTest, PureReadQuantaLeaveReadersUncapped) {
  // Without write pressure more readers only help (the model's read
  // bandwidth is monotone in demand): caps must stay released.
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < 4; ++q) governor.Observe(PressuredSample(0.0));
  GovernorDecision decision = governor.decision();
  ASSERT_EQ(decision.read_workers.size(), 2u);
  EXPECT_EQ(decision.read_workers[0], 0);  // 0 = uncapped
  EXPECT_EQ(decision.read_workers[1], 0);
}

TEST_F(GovernorTest, OneQuantumBlipDoesNotActuate) {
  // Hysteresis: a target that appears for a single quantum and reverts
  // never commits — no oscillation on noisy telemetry.
  BandwidthGovernor governor(&model_);
  ASSERT_GE(kHysteresisQuanta, 2);
  governor.Observe(PressuredSample(0.9));  // blip: wants caps
  GovernorDecision after_blip = governor.decision();
  EXPECT_EQ(after_blip.read_workers, std::vector<int>({0, 0}));
  governor.Observe(PressuredSample(0.0));  // reverted before persisting
  governor.Observe(PressuredSample(0.0));
  GovernorDecision decision = governor.decision();
  EXPECT_EQ(decision.read_workers, std::vector<int>({0, 0}));
}

TEST_F(GovernorTest, CommitLandsExactlyAfterHysteresisQuanta) {
  BandwidthGovernor governor(&model_);
  for (int q = 0; q < kHysteresisQuanta - 1; ++q) {
    governor.Observe(PressuredSample(0.9));
    EXPECT_EQ(governor.decision().read_workers,
              std::vector<int>({0, 0}))
        << "committed too early at quantum " << q + 1;
  }
  governor.Observe(PressuredSample(0.9));
  EXPECT_NE(governor.decision().read_workers, std::vector<int>({0, 0}));
}

TEST_F(GovernorTest, ThrottleEstimateIsTheSharedAdmissionSignal) {
  BandwidthGovernor governor(&model_);
  EXPECT_DOUBLE_EQ(governor.decision().throttle, 1.0);  // before any sample
  governor.Observe(PressuredSample(0.5, /*dimm_factor=*/0.25,
                                   /*upi_factor=*/0.6));
  // Same reduction as qos::DegradationEstimate: min of the factors.
  EXPECT_DOUBLE_EQ(governor.decision().throttle,
                   qos::DegradationEstimate(0.25, 0.6));
  governor.Observe(PressuredSample(0.5, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(governor.decision().throttle, 1.0);
}

TEST_F(GovernorTest, AblationSwitchesDisableActuators) {
  GovernorConfig config;
  config.stage_structures = false;
  config.shape_morsels = false;
  BandwidthGovernor governor(&model_, config);
  for (int q = 0; q < 5; ++q) governor.Observe(PressuredSample(0.9));
  GovernorDecision decision = governor.decision();
  EXPECT_TRUE(decision.staged.empty());
  EXPECT_EQ(decision.staged_bytes, 0u);
  // The concurrency actuator has no switch: readers still cap at the knee.
  const int knee = governor.ReadKnee(0).threads;
  EXPECT_EQ(decision.read_workers, std::vector<int>({knee, knee}));
  // Shaping off is what the engine reads, and the log records it.
  const std::vector<std::string> log = governor.actuator_log();
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("shape=0"), std::string::npos) << log.back();
}

// --- telemetry --------------------------------------------------------------

TEST_F(GovernorTest, BuildTelemetryReportsJointPressureAndThrottles) {
  // One sequential read class per socket plus a heavy write class on
  // socket 0, with an injector throttling socket 0's DIMMs.
  std::vector<TrafficRecord> query;
  for (int socket = 0; socket < 2; ++socket) {
    TrafficRecord scan;
    scan.op = OpType::kRead;
    scan.pattern = Pattern::kSequentialIndividual;
    scan.media = Media::kPmem;
    scan.data_socket = socket;
    scan.worker_socket = socket;
    scan.bytes = 8ull * kGiB;
    scan.access_size = 4 * kKiB;
    scan.region_bytes = 8ull * kGiB;
    scan.threads = 18;
    scan.label = "scan";
    query.push_back(scan);
  }
  std::vector<TrafficRecord> background;
  TrafficRecord ingest;
  ingest.op = OpType::kWrite;
  ingest.pattern = Pattern::kSequentialIndividual;
  ingest.media = Media::kPmem;
  ingest.data_socket = 0;
  ingest.worker_socket = 0;
  ingest.bytes = 8ull * kGiB;
  ingest.access_size = 4 * kKiB;
  ingest.region_bytes = 8ull * kGiB;
  ingest.threads = 18;
  ingest.label = "ingest";
  background.push_back(ingest);

  FaultSpec spec;
  ThrottleWindow window;
  window.socket = 0;
  window.start_seconds = 0.0;
  window.end_seconds = 100.0;
  window.service_factor = 0.5;
  spec.throttle_windows.push_back(window);
  FaultInjector injector(spec);
  injector.AdvanceTo(10.0);

  TelemetrySample sample = BuildTelemetry(model_, query, background,
                                          PinningPolicy::kCores, &injector);
  ASSERT_EQ(sample.sockets.size(), 2u);
  EXPECT_EQ(sample.classes.size(), 3u);
  // Socket 0 carries the write pressure; socket 1 has none.
  EXPECT_GT(sample.sockets[0].write_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(sample.sockets[1].write_occupancy, 0.0);
  EXPECT_GT(sample.sockets[0].read_occupancy, 0.0);
  // Throttle state flows from the injector.
  EXPECT_DOUBLE_EQ(sample.sockets[0].dimm_service_factor, 0.5);
  EXPECT_DOUBLE_EQ(sample.sockets[1].dimm_service_factor, 1.0);
  // Background classes are marked as such.
  int background_classes = 0;
  for (const ClassTelemetry& klass : sample.classes) {
    if (klass.background) ++background_classes;
    EXPECT_GT(klass.gbps, 0.0) << klass.record.label;
  }
  EXPECT_EQ(background_classes, 1);
  // The contended socket-0 scan is slower than socket 1's solo scan.
  double scan0 = 0.0, scan1 = 0.0;
  for (const ClassTelemetry& klass : sample.classes) {
    if (klass.record.label != "scan") continue;
    (klass.record.data_socket == 0 ? scan0 : scan1) = klass.gbps;
  }
  EXPECT_LT(scan0, scan1);
}

TEST_F(GovernorTest, BuildTelemetryIsDeterministic) {
  std::vector<TrafficRecord> query;
  TrafficRecord scan;
  scan.op = OpType::kRead;
  scan.pattern = Pattern::kSequentialIndividual;
  scan.media = Media::kPmem;
  scan.data_socket = 0;
  scan.worker_socket = 0;
  scan.bytes = kGiB;
  scan.access_size = 4 * kKiB;
  scan.region_bytes = kGiB;
  scan.threads = 9;
  scan.label = "scan";
  query.push_back(scan);

  TelemetrySample a =
      BuildTelemetry(model_, query, {}, PinningPolicy::kCores);
  TelemetrySample b =
      BuildTelemetry(model_, query, {}, PinningPolicy::kCores);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.classes[i].gbps, b.classes[i].gbps);
  }
  ASSERT_EQ(a.sockets.size(), b.sockets.size());
  for (size_t s = 0; s < a.sockets.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.sockets[s].read_occupancy,
                     b.sockets[s].read_occupancy);
  }
}

}  // namespace
}  // namespace pmemolap::governor
