#include "core/profile.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pmemolap {

Result<AccessClass> ToAccessClass(const TrafficRecord& record, int threads,
                                  PinningPolicy pinning,
                                  const SystemTopology& topology) {
  const int worker_socket =
      record.worker_socket >= 0 ? record.worker_socket : record.data_socket;
  ThreadPlacer placer(topology);
  PMEMOLAP_ASSIGN_OR_RETURN(
      ThreadPlacement placement,
      placer.Place(std::max(threads, 1), pinning, worker_socket));
  if (pinning != PinningPolicy::kNone) {
    for (ThreadSlot& slot : placement.slots) {
      slot.near_data = SystemTopology::IsNear(slot.socket, record.data_socket);
    }
  }
  AccessClass klass;
  klass.op = record.op;
  klass.pattern = record.pattern;
  klass.media = record.media;
  klass.access_size = std::max<uint64_t>(record.access_size, 64);
  klass.placement = std::move(placement);
  klass.data_socket = record.data_socket;
  klass.region_bytes = record.region_bytes;
  klass.run_index = 2;  // steady state: the directory is warm
  klass.label = record.label;
  return klass;
}

std::vector<AccessClass> StandingClasses(
    const std::vector<TrafficRecord>& background, PinningPolicy pinning,
    const SystemTopology& topology) {
  std::vector<AccessClass> standing;
  int next_region = 0;
  for (const TrafficRecord& record : background) {
    if (record.bytes == 0) continue;
    Result<AccessClass> klass =
        ToAccessClass(record, record.threads, pinning, topology);
    if (!klass.ok()) continue;
    klass->region_id = 2000 + next_region++;
    standing.push_back(std::move(klass.value()));
  }
  return standing;
}

double RecordGbpsAmong(const MemSystemModel& model, const TrafficRecord& record,
                       PinningPolicy pinning,
                       const std::vector<AccessClass>& standing) {
  if (record.bytes == 0) return 0.0;
  Result<AccessClass> klass = ToAccessClass(record, record.threads, pinning,
                                            model.config().topology);
  if (!klass.ok()) return 0.0;
  klass->region_id = 1000;  // disjoint from the standing 2000+ regions
  WorkloadSpec spec;
  spec.classes.push_back(std::move(klass.value()));
  spec.classes.insert(spec.classes.end(), standing.begin(), standing.end());
  const BandwidthResult result = model.EvaluateOnce(spec);
  return result.per_class.empty() ? 0.0 : result.per_class[0].gbps;
}

void ExecutionProfile::RecordSequential(OpType op, Media media, int socket,
                                        uint64_t bytes, uint64_t access_size,
                                        int threads,
                                        const std::string& label) {
  TrafficRecord record;
  record.op = op;
  record.pattern = Pattern::kSequentialIndividual;
  record.media = media;
  record.data_socket = socket;
  record.bytes = bytes;
  record.access_size = access_size;
  record.region_bytes = bytes;
  record.threads = threads;
  record.label = label;
  Record(std::move(record));
}

uint64_t ExecutionProfile::TotalBytes(OpType op) const {
  uint64_t total = 0;
  for (const TrafficRecord& record : records_) {
    if (record.op == op) total += record.bytes;
  }
  return total;
}

ExecutionProfile ExecutionProfile::Scaled(double factor) const {
  ExecutionProfile scaled;
  for (TrafficRecord record : records_) {
    record.bytes = static_cast<uint64_t>(
        std::llround(static_cast<double>(record.bytes) * factor));
    record.region_bytes = static_cast<uint64_t>(
        std::llround(static_cast<double>(record.region_bytes) * factor));
    scaled.Record(std::move(record));
  }
  return scaled;
}

}  // namespace pmemolap
