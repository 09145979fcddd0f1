// ChaosSchedule: seeded campaign generation and its FaultSpec rendering.
#include "service/chaos.h"

#include <gtest/gtest.h>

namespace pmemolap::service {
namespace {

/// The platform the schedules are generated for (the paper's server).
constexpr int kSockets = 2;

ChaosConfig StormConfig() {
  ChaosConfig config;
  config.throttle_storms = 4;
  config.crashes = 2;
  config.ingest_bursts = 6;
  config.poison_lines_per_mib = 8.0;
  config.upi_capacity_factor = 0.9;
  return config;
}

TEST(ChaosScheduleTest, SameSeedByteIdentical) {
  ChaosSchedule a = ChaosSchedule::Generate(StormConfig(), kSockets);
  ChaosSchedule b = ChaosSchedule::Generate(StormConfig(), kSockets);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_FALSE(a.Describe().empty());
}

TEST(ChaosScheduleTest, EventsSortedInsideHorizon) {
  ChaosSchedule schedule = ChaosSchedule::Generate(StormConfig(), kSockets);
  const ChaosConfig& config = schedule.config();
  double last = 0.0;
  int storms_start = 0, storms_end = 0, crashes = 0, bursts = 0;
  for (const ChaosEvent& event : schedule.events()) {
    EXPECT_GE(event.at_seconds, last);
    last = event.at_seconds;
    EXPECT_GE(event.at_seconds, 0.0);
    EXPECT_LE(event.at_seconds, config.horizon_seconds);
    switch (event.kind) {
      case ChaosKind::kThrottleStart: ++storms_start; break;
      case ChaosKind::kThrottleEnd: ++storms_end; break;
      case ChaosKind::kCrash: ++crashes; break;
      case ChaosKind::kIngestBurst:
        ++bursts;
        EXPECT_EQ(event.rows, config.burst_rows);
        break;
    }
  }
  EXPECT_EQ(storms_start, config.throttle_storms);
  EXPECT_EQ(storms_end, config.throttle_storms);
  EXPECT_EQ(crashes, config.crashes);
  EXPECT_EQ(bursts, config.ingest_bursts);
}

TEST(ChaosScheduleTest, EveryCrashPrecedesABurst) {
  ChaosSchedule schedule = ChaosSchedule::Generate(StormConfig(), kSockets);
  // A crash only fires when the next persistence boundary is crossed, so
  // the schedule must place an ingest burst after every crash arm.
  for (size_t i = 0; i < schedule.events().size(); ++i) {
    if (schedule.events()[i].kind != ChaosKind::kCrash) continue;
    bool burst_follows = false;
    for (size_t j = i + 1; j < schedule.events().size(); ++j) {
      if (schedule.events()[j].kind == ChaosKind::kIngestBurst) {
        burst_follows = true;
        break;
      }
    }
    EXPECT_TRUE(burst_follows) << "crash at index " << i;
  }
}

TEST(ChaosScheduleTest, FaultSpecCarriesTheStaticCampaign) {
  ChaosConfig config = StormConfig();
  ChaosSchedule schedule = ChaosSchedule::Generate(config, kSockets);
  FaultSpec spec = schedule.ToFaultSpec();
  EXPECT_DOUBLE_EQ(spec.poison_lines_per_mib, config.poison_lines_per_mib);
  EXPECT_DOUBLE_EQ(spec.upi_capacity_factor, config.upi_capacity_factor);
  ASSERT_EQ(spec.throttle_windows.size(),
            static_cast<size_t>(config.throttle_storms));
  for (const ThrottleWindow& window : spec.throttle_windows) {
    EXPECT_LT(window.start_seconds, window.end_seconds);
    EXPECT_GE(window.end_seconds - window.start_seconds,
              config.storm_min_seconds - 1e-9);
    EXPECT_LE(window.end_seconds - window.start_seconds,
              config.storm_max_seconds + 1e-9);
    EXPECT_GE(window.service_factor, config.storm_factor_lo);
    EXPECT_LE(window.service_factor, config.storm_factor_hi);
    EXPECT_GE(window.socket, 0);
    EXPECT_LT(window.socket, kSockets);
  }
}

TEST(ChaosScheduleTest, FaultClearEdgesAreThrottleEnds) {
  ChaosSchedule schedule = ChaosSchedule::Generate(StormConfig(), kSockets);
  std::vector<double> edges = schedule.FaultClearEdges();
  ASSERT_EQ(edges.size(),
            static_cast<size_t>(schedule.config().throttle_storms));
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LE(edges[i - 1], edges[i]);
  }
}

TEST(ChaosScheduleTest, EmptyConfigEmptySchedule) {
  ChaosSchedule schedule = ChaosSchedule::Generate(ChaosConfig{}, kSockets);
  EXPECT_TRUE(schedule.events().empty());
  EXPECT_TRUE(schedule.ToFaultSpec().throttle_windows.empty());
  EXPECT_TRUE(schedule.FaultClearEdges().empty());
}

}  // namespace
}  // namespace pmemolap::service
