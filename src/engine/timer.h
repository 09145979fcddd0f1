// QueryTimer — converts an ExecutionProfile plus CPU work counts into a
// projected wall-clock time using the MemSystemModel, so the SSB results
// (Fig. 14, Table 1) are produced by the SAME calibrated model as the
// microbenchmarks.
//
// Phases (profile labels) run sequentially; within a phase, the work of
// different worker sockets runs concurrently (time = max over sockets of
// the socket's summed record times). CPU cost is added on top; the
// per-tuple nanosecond constants absorb pipelining overlap and are
// calibrated against Table 1's single-thread row.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/profile.h"
#include "memsys/mem_system.h"
#include "topo/pinning.h"

namespace pmemolap {

/// CPU work counts of one query execution.
struct CpuWork {
  uint64_t tuples_scanned = 0;
  uint64_t probes = 0;
  uint64_t agg_updates = 0;

  CpuWork Scaled(double factor) const;
};

/// Per-operation CPU costs (single-thread nanoseconds) and cache model.
struct TimerConfig {
  double scan_ns_per_tuple = 15.0;
  double probe_ns = 75.0;
  double agg_ns = 50.0;
  /// Effective last-level cache available to random-access structures
  /// (the 24.75 MB LLC, partially thrashed by concurrent scans). Random
  /// records against regions that fit here mostly hit the cache; only the
  /// miss fraction reaches the memory devices.
  uint64_t effective_llc_bytes = 12 * kMiB;
  /// Residual miss rate for fully cache-resident regions.
  double min_miss_fraction = 0.05;
};

class QueryTimer {
 public:
  QueryTimer(const MemSystemModel* model, TimerConfig config = TimerConfig())
      : model_(model), config_(config) {}

  const TimerConfig& config() const { return config_; }

  /// Seconds for the profiled traffic and CPU work executed by
  /// `total_threads` workers placed with `pinning`, under standing
  /// `background` traffic (e.g. an ingest load running for the whole
  /// query). Every query record is evaluated JOINTLY with the background
  /// classes, so records sharing a (socket, media) device pool with the
  /// load see the contended bandwidth of Fig. 11 instead of their solo
  /// rate; background records occupy regions disjoint from the query's.
  /// When `breakdown` is non-null, it receives the per-phase memory
  /// seconds (keyed by profile label) plus a "cpu" entry — the
  /// where-does-the-time-go evidence behind Table 1's discussion.
  double EstimateSecondsWithBackground(
      const ExecutionProfile& profile, const CpuWork& work, int total_threads,
      PinningPolicy pinning, const std::vector<TrafficRecord>& background,
      std::map<std::string, double>* breakdown = nullptr) const;

  /// Multi-user execution: `streams` concurrent copies of the query share
  /// the machine. Each stream runs with threads/streams workers, and all
  /// streams' traffic is evaluated JOINTLY through the model, so the
  /// mixed-workload interference of Fig. 11 applies across streams.
  struct ThroughputEstimate {
    /// Wall-clock seconds one stream needs for one query.
    double stream_seconds = 0.0;
    /// Completed queries per hour across all streams.
    double queries_per_hour = 0.0;
  };
  ThroughputEstimate EstimateConcurrentStreams(const ExecutionProfile& profile,
                                               const CpuWork& work,
                                               int streams, int total_threads,
                                               PinningPolicy pinning) const;

 private:
  /// Bytes that actually reach the devices (LLC-filtered for random).
  double EffectiveBytes(const TrafficRecord& record) const;
  /// CPU seconds of `work` spread over `threads` workers.
  double CpuSeconds(const CpuWork& work, int threads) const;
  /// Memory time of `record` at its RecordGbpsAmong rate among the
  /// standing `background` classes.
  double RecordSecondsAmong(const TrafficRecord& record, PinningPolicy pinning,
                            const std::vector<AccessClass>& background) const;

  const MemSystemModel* model_;
  TimerConfig config_;
};

}  // namespace pmemolap
