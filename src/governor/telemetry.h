// Telemetry sampling for the bandwidth governor.
//
// One TelemetrySample is the governor's view of a scheduling quantum: the
// traffic records the run was priced with — the query's own, then any
// standing background (e.g. an ingest load) — and the run's pinning. It
// carries records, not rates: each decision prices the records it reads
// itself (staging prices a structure's records among the background), so
// building a sample evaluates no model. It is the modeled stand-in for
// the per-structure access counters a real governor would sample.
#pragma once

#include <vector>

#include "core/profile.h"
#include "memsys/mem_system.h"
#include "topo/pinning.h"

namespace pmemolap {
namespace governor {

struct TelemetrySample {
  /// The query's records, in the order the run recorded them.
  std::vector<TrafficRecord> query;
  /// The standing background records the run was costed with, in order.
  std::vector<TrafficRecord> background;
  /// The run's thread pinning: its records' classes were placed with it.
  PinningPolicy pinning = PinningPolicy::kCores;
};

/// The sample of one run: `query` and `background`, each in order and each
/// keeping only the records that become model classes — those that move
/// bytes and that ToAccessClass places under `pinning` on `model`'s
/// topology.
TelemetrySample BuildTelemetry(const MemSystemModel& model,
                               const std::vector<TrafficRecord>& query,
                               const std::vector<TrafficRecord>& background,
                               PinningPolicy pinning);

}  // namespace governor
}  // namespace pmemolap
