#include "governor/telemetry.h"

#include <algorithm>
#include <utility>

namespace pmemolap {
namespace governor {

TelemetrySample BuildTelemetry(const MemSystemModel& model,
                               const std::vector<TrafficRecord>& query,
                               const std::vector<TrafficRecord>& background,
                               PinningPolicy pinning,
                               const FaultInjector* injector) {
  TelemetrySample sample;
  sample.pinning = pinning;
  int sockets = model.config().topology.sockets();
  sample.sockets.resize(static_cast<size_t>(std::max(sockets, 1)));
  for (int s = 0; s < sockets; ++s) {
    sample.sockets[static_cast<size_t>(s)].dimm_service_factor =
        injector != nullptr ? injector->DimmServiceFactor(s) : 1.0;
  }
  sample.upi_capacity_factor =
      injector != nullptr ? injector->UpiCapacityFactor() : 1.0;

  struct Origin {
    const TrafficRecord* record;
    bool background;
  };
  WorkloadSpec spec;
  std::vector<Origin> origins;
  int next_region = 0;
  // The same record→class translation QueryTimer prices, so telemetry
  // samples exactly the classes the run was costed as.
  auto add = [&](const std::vector<TrafficRecord>& records, bool is_bg) {
    for (const TrafficRecord& record : records) {
      if (record.bytes == 0) continue;
      Result<AccessClass> klass = ToAccessClass(
          record, record.threads, pinning, model.config().topology);
      if (!klass.ok()) continue;
      klass->region_id = (is_bg ? 2000 : 1000) + next_region++;
      spec.classes.push_back(std::move(klass.value()));
      origins.push_back({&record, is_bg});
    }
  };
  add(query, false);
  add(background, true);
  if (spec.classes.empty()) return sample;

  const BandwidthResult result = model.EvaluateOnce(spec);
  for (size_t i = 0; i < origins.size(); ++i) {
    sample.classes.push_back({*origins[i].record, result.per_class[i].gbps,
                              origins[i].background});
  }
  return sample;
}

}  // namespace governor
}  // namespace pmemolap
