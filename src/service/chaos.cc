#include "service/chaos.h"

#include <algorithm>
#include <cstdio>

namespace pmemolap::service {

const char* ChaosKindName(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kThrottleStart:
      return "throttle-start";
    case ChaosKind::kThrottleEnd:
      return "throttle-end";
    case ChaosKind::kCrash:
      return "crash";
    case ChaosKind::kIngestBurst:
      return "ingest-burst";
  }
  return "unknown";
}

ChaosSchedule ChaosSchedule::Generate(const ChaosConfig& config, int sockets) {
  ChaosSchedule schedule;
  schedule.config_ = config;
  Rng rng(config.seed);
  Rng storm_rng = rng.Fork(1);
  Rng burst_rng = rng.Fork(2);
  Rng crash_rng = rng.Fork(3);

  std::vector<ChaosEvent>& events = schedule.events_;

  // Throttle storms: each picks a socket, a start inside the horizon, a
  // duration inside [min, max], and a severity inside the factor band.
  // Storms may overlap (the injector composes overlapping windows by
  // taking the worst factor), which is exactly the "storm" shape we want.
  for (int s = 0; s < config.throttle_storms; ++s) {
    const double duration =
        config.storm_min_seconds +
        storm_rng.NextDouble() *
            (config.storm_max_seconds - config.storm_min_seconds);
    const double latest_start =
        std::max(0.0, config.horizon_seconds - duration);
    const double start = storm_rng.NextDouble() * latest_start;
    const double factor =
        config.storm_factor_lo +
        storm_rng.NextDouble() *
            (config.storm_factor_hi - config.storm_factor_lo);
    const int socket = static_cast<int>(
        storm_rng.NextBelow(static_cast<uint64_t>(std::max(1, sockets))));
    ChaosEvent open;
    open.at_seconds = start;
    open.kind = ChaosKind::kThrottleStart;
    open.socket = socket;
    open.service_factor = factor;
    events.push_back(open);
    ChaosEvent close = open;
    close.at_seconds = start + duration;
    close.kind = ChaosKind::kThrottleEnd;
    events.push_back(close);
  }

  // Ingest bursts: spread across the horizon with seeded placement. The
  // first `crashes` bursts each get a crash armed strictly before them,
  // so the armed boundary is guaranteed a firing ingest.
  const int bursts = std::max(config.ingest_bursts,
                              config.crashes > 0 ? config.crashes : 0);
  std::vector<double> burst_times;
  burst_times.reserve(static_cast<size_t>(bursts));
  for (int b = 0; b < bursts; ++b) {
    // Stratified: burst b lands in slot b of `bursts` equal slots, so
    // bursts never collapse onto one instant regardless of seed.
    const double slot = config.horizon_seconds / std::max(1, bursts);
    burst_times.push_back(slot * b + burst_rng.NextDouble() * slot);
  }
  std::sort(burst_times.begin(), burst_times.end());
  for (int b = 0; b < bursts; ++b) {
    if (b < config.crashes) {
      ChaosEvent crash;
      // Arm shortly before the burst that fires it; clamp at 0.
      crash.at_seconds = std::max(
          0.0, burst_times[static_cast<size_t>(b)] -
                   (0.1 + crash_rng.NextDouble() * 0.4));
      crash.kind = ChaosKind::kCrash;
      events.push_back(crash);
    }
    ChaosEvent burst;
    burst.at_seconds = burst_times[static_cast<size_t>(b)];
    burst.kind = ChaosKind::kIngestBurst;
    burst.rows = config.burst_rows;
    events.push_back(burst);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  return schedule;
}

FaultSpec ChaosSchedule::ToFaultSpec() const {
  FaultSpec spec;
  spec.seed = config_.seed ^ 0xF001;
  spec.poison_lines_per_mib = config_.poison_lines_per_mib;
  spec.transient_fraction = config_.transient_fraction;
  spec.upi_capacity_factor = config_.upi_capacity_factor;
  for (const ChaosEvent& event : events_) {
    if (event.kind != ChaosKind::kThrottleStart) continue;
    // Recover the matching end by scanning forward: starts and ends were
    // pushed as pairs with identical socket/factor.
    for (const ChaosEvent& end : events_) {
      if (end.kind == ChaosKind::kThrottleEnd && end.socket == event.socket &&
          end.service_factor == event.service_factor &&
          end.at_seconds > event.at_seconds) {
        ThrottleWindow window;
        window.socket = event.socket;
        window.start_seconds = event.at_seconds;
        window.end_seconds = end.at_seconds;
        window.service_factor = event.service_factor;
        spec.throttle_windows.push_back(window);
        break;
      }
    }
  }
  return spec;
}

std::vector<double> ChaosSchedule::FaultClearEdges() const {
  std::vector<double> edges;
  for (const ChaosEvent& event : events_) {
    if (event.kind == ChaosKind::kThrottleEnd) {
      edges.push_back(event.at_seconds);
    }
  }
  return edges;
}

std::string ChaosSchedule::Describe() const {
  std::string out;
  char line[160];
  for (const ChaosEvent& event : events_) {
    std::snprintf(line, sizeof(line),
                  "t=%.6f %s socket=%d factor=%.6f rows=%llu\n",
                  event.at_seconds, ChaosKindName(event.kind), event.socket,
                  event.service_factor,
                  static_cast<unsigned long long>(event.rows));
    out += line;
  }
  return out;
}

}  // namespace pmemolap::service
