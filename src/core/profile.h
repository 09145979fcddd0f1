// ExecutionProfile — records the memory traffic of a (functionally
// executed) operation so the timing layer can replay it through the
// MemSystemModel. This is the bridge between real query execution at small
// scale and the paper-scale runtime projections of Fig. 14 / Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "memsys/mem_system.h"
#include "memsys/workload.h"
#include "topo/pinning.h"
#include "topo/topology.h"

namespace pmemolap {

/// One homogeneous block of recorded traffic.
struct TrafficRecord {
  OpType op = OpType::kRead;
  Pattern pattern = Pattern::kSequentialIndividual;
  Media media = Media::kPmem;
  int data_socket = 0;
  /// Total useful bytes moved.
  uint64_t bytes = 0;
  /// Bytes per individual operation (chunk or probe size).
  uint64_t access_size = 4 * kKiB;
  /// Size of the region the accesses hit (drives DRAM channel spread).
  uint64_t region_bytes = 0;
  /// Threads that performed this traffic concurrently.
  int threads = 1;
  /// Socket the issuing threads run on; -1 means the data socket (near
  /// access). Far traffic sets this to the other socket.
  int worker_socket = -1;
  std::string label;
};

/// The model class for `record` run by `threads` workers placed with
/// `pinning` on the record's worker socket (its data socket when unset),
/// with the directory warm (run_index 2). The one record→class
/// translation: QueryTimer prices these classes, the governor's
/// telemetry samples the same ones, and WorkloadRunner::MakeClass builds
/// every figure sweep's class (and the governor's knee) through it.
Result<AccessClass> ToAccessClass(const TrafficRecord& record, int threads,
                                  PinningPolicy pinning,
                                  const SystemTopology& topology);

/// The classes of standing `background` records (e.g. an ingest load that
/// runs for a whole query), each through ToAccessClass in its own region
/// (2000, 2001, ...), so a record priced among them contends for the
/// device pools, not the same bytes. Records that move no bytes or cannot
/// be placed are dropped.
std::vector<AccessClass> StandingClasses(
    const std::vector<TrafficRecord>& background, PinningPolicy pinning,
    const SystemTopology& topology);

/// The GB/s `record` sees evaluated jointly with the `standing` classes
/// only, in region 1000. A query's phases run one after another, so a
/// phase contends with the standing load, not with the query's other
/// phases: QueryTimer prices every record this way, and the governor
/// prices a structure's staging benefit the same way. 0 when the record
/// moves no bytes or cannot be placed.
double RecordGbpsAmong(const MemSystemModel& model, const TrafficRecord& record,
                       PinningPolicy pinning,
                       const std::vector<AccessClass>& standing);

/// Accumulates traffic records.
class ExecutionProfile {
 public:
  void Record(TrafficRecord record) { records_.push_back(std::move(record)); }

  /// Convenience: sequential near-socket traffic.
  void RecordSequential(OpType op, Media media, int socket, uint64_t bytes,
                        uint64_t access_size, int threads,
                        const std::string& label);

  const std::vector<TrafficRecord>& records() const { return records_; }

  uint64_t TotalBytes(OpType op) const;

  /// Scales every record's byte and region counts by `factor` — used to
  /// project a profile captured at a small scale factor to the paper's
  /// sf 50 / sf 100.
  ExecutionProfile Scaled(double factor) const;

 private:
  std::vector<TrafficRecord> records_;
};

}  // namespace pmemolap
