// Telemetry sampling for the bandwidth governor.
//
// One TelemetrySample is the governor's view of a scheduling quantum: the
// query's recorded traffic and any standing background traffic (e.g. an
// ingest load) evaluated JOINTLY through the MemSystemModel, reduced to
// per-class effective bandwidths, plus the fault layer's per-DIMM throttle
// and UPI capacity state. It is the modeled stand-in for the iMC
// performance counters a real governor would sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/profile.h"
#include "fault/fault_injector.h"
#include "memsys/mem_system.h"
#include "topo/pinning.h"

namespace pmemolap {
namespace governor {

/// Joint-model outcome for one recorded traffic class.
struct ClassTelemetry {
  /// The record as the run priced it (label, shape, media, data socket).
  TrafficRecord record;
  /// Effective bandwidth under the joint (contended) evaluation.
  double gbps = 0.0;
  /// True for standing background traffic (not part of the query).
  bool background = false;
};

/// Health of one socket's PMEM pool.
struct SocketTelemetry {
  /// Fault-injected DIMM throttle state (1.0 = healthy).
  double dimm_service_factor = 1.0;
};

struct TelemetrySample {
  std::vector<SocketTelemetry> sockets;
  std::vector<ClassTelemetry> classes;
  double upi_capacity_factor = 1.0;
  /// The run's thread pinning: its records' classes were placed with it.
  PinningPolicy pinning = PinningPolicy::kCores;
};

/// Evaluates `query` and `background` records jointly through `model` and
/// reduces the result to a TelemetrySample. Distinct records are placed in
/// disjoint regions (the sample measures pool contention, not the paper's
/// config-(v) shared-region collapse). `injector` supplies the throttle
/// state and may be null (healthy platform).
TelemetrySample BuildTelemetry(const MemSystemModel& model,
                               const std::vector<TrafficRecord>& query,
                               const std::vector<TrafficRecord>& background,
                               PinningPolicy pinning,
                               const FaultInjector* injector = nullptr);

}  // namespace governor
}  // namespace pmemolap
