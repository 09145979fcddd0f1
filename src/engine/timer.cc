#include "engine/timer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace pmemolap {

CpuWork CpuWork::Scaled(double factor) const {
  CpuWork scaled;
  scaled.tuples_scanned = static_cast<uint64_t>(
      std::llround(static_cast<double>(tuples_scanned) * factor));
  scaled.probes = static_cast<uint64_t>(
      std::llround(static_cast<double>(probes) * factor));
  scaled.agg_updates = static_cast<uint64_t>(
      std::llround(static_cast<double>(agg_updates) * factor));
  return scaled;
}

namespace {

/// Within a phase the worker sockets proceed in parallel — except SSD
/// traffic, which funnels through one shared device regardless of the
/// issuing socket (bucket -1).
int SocketBucket(const TrafficRecord& record) {
  if (record.media == Media::kSsd) return -1;
  return record.worker_socket >= 0 ? record.worker_socket
                                   : record.data_socket;
}

/// A phase lasts as long as its slowest socket bucket.
double PhaseSeconds(const std::map<int, double>& socket_seconds) {
  double phase = 0.0;
  for (const auto& [socket, seconds] : socket_seconds) {
    (void)socket;
    phase = std::max(phase, seconds);
  }
  return phase;
}

}  // namespace

double QueryTimer::EffectiveBytes(const TrafficRecord& record) const {
  // Random access against a cache-resident region mostly hits the LLC;
  // only misses reach the devices. (The 2 GB microbenchmark regions of
  // Figs. 12/13 miss essentially always.)
  double effective_bytes = static_cast<double>(record.bytes);
  if (record.pattern == Pattern::kRandom && record.region_bytes > 0) {
    double miss = 1.0 - static_cast<double>(config_.effective_llc_bytes) /
                            static_cast<double>(record.region_bytes);
    miss = std::max(miss, config_.min_miss_fraction);
    effective_bytes *= miss;
  }
  return effective_bytes;
}

double QueryTimer::CpuSeconds(const CpuWork& work, int threads) const {
  const double cpu_ns =
      static_cast<double>(work.tuples_scanned) * config_.scan_ns_per_tuple +
      static_cast<double>(work.probes) * config_.probe_ns +
      static_cast<double>(work.agg_updates) * config_.agg_ns;
  return cpu_ns / 1e9 / static_cast<double>(std::max(threads, 1));
}

double QueryTimer::RecordSecondsAmong(
    const TrafficRecord& record, PinningPolicy pinning,
    const std::vector<AccessClass>& background) const {
  const double gbps = RecordGbpsAmong(*model_, record, pinning, background);
  if (gbps <= 0.0) return 0.0;
  return EffectiveBytes(record) / 1e9 / gbps;
}

double QueryTimer::EstimateSecondsWithBackground(
    const ExecutionProfile& profile, const CpuWork& work, int total_threads,
    PinningPolicy pinning, const std::vector<TrafficRecord>& background,
    std::map<std::string, double>* breakdown) const {
  // The standing background classes, built once.
  const std::vector<AccessClass> standing =
      StandingClasses(background, pinning, model_->config().topology);

  // Phase = label; phases run one after another.
  std::map<std::string, std::map<int, double>> phase_socket_seconds;
  for (const TrafficRecord& record : profile.records()) {
    phase_socket_seconds[record.label][SocketBucket(record)] +=
        RecordSecondsAmong(record, pinning, standing);
  }
  double memory_seconds = 0.0;
  for (const auto& [label, socket_seconds] : phase_socket_seconds) {
    const double phase = PhaseSeconds(socket_seconds);
    if (breakdown != nullptr) (*breakdown)[label] = phase;
    memory_seconds += phase;
  }

  const double cpu_seconds = CpuSeconds(work, total_threads);
  if (breakdown != nullptr) (*breakdown)["cpu"] = cpu_seconds;
  return memory_seconds + cpu_seconds;
}

QueryTimer::ThroughputEstimate QueryTimer::EstimateConcurrentStreams(
    const ExecutionProfile& profile, const CpuWork& work, int streams,
    int total_threads, PinningPolicy pinning) const {
  ThroughputEstimate estimate;
  streams = std::max(streams, 1);
  int threads_per_stream = std::max(1, total_threads / streams);

  // Group records by phase; within a phase, evaluate ALL streams' classes
  // jointly (shared device pools => cross-stream interference), then cost
  // one stream's bytes against its own share.
  std::map<std::string, std::vector<const TrafficRecord*>> phases;
  for (const TrafficRecord& record : profile.records()) {
    phases[record.label].push_back(&record);
  }

  double memory_seconds = 0.0;
  for (const auto& [label, records] : phases) {
    (void)label;
    WorkloadSpec spec;
    std::vector<double> bytes_per_class;
    for (int stream = 0; stream < streams; ++stream) {
      for (const TrafficRecord* record : records) {
        // Each stream runs the record with its share of the workers.
        int record_threads = std::max(1, record->threads / streams);
        Result<AccessClass> klass = ToAccessClass(
            *record, record_threads, pinning, model_->config().topology);
        if (!klass.ok()) continue;
        // Streams work on disjoint data sets on the same DIMMs.
        klass->region_id = 1000 + stream;
        spec.classes.push_back(std::move(klass.value()));
        bytes_per_class.push_back(EffectiveBytes(*record));
      }
    }
    if (spec.classes.empty()) continue;
    BandwidthResult result = model_->EvaluateOnce(spec);
    // One stream's phase time: the max over its sockets of summed record
    // times (stream 0's classes are the first `records.size()` entries).
    std::map<int, double> socket_seconds;
    for (size_t i = 0; i < records.size(); ++i) {
      double gbps = result.per_class[i].gbps;
      if (gbps <= 0.0) continue;
      socket_seconds[SocketBucket(*records[i])] +=
          bytes_per_class[i] / 1e9 / gbps;
    }
    memory_seconds += PhaseSeconds(socket_seconds);
  }

  estimate.stream_seconds =
      memory_seconds + CpuSeconds(work, threads_per_stream);
  if (estimate.stream_seconds > 0.0) {
    estimate.queries_per_hour =
        3600.0 * static_cast<double>(streams) / estimate.stream_seconds;
  }
  return estimate;
}

}  // namespace pmemolap
