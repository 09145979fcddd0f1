#include "governor/telemetry.h"

namespace pmemolap {
namespace governor {

TelemetrySample BuildTelemetry(const MemSystemModel& model,
                               const std::vector<TrafficRecord>& query,
                               const std::vector<TrafficRecord>& background,
                               PinningPolicy pinning) {
  // QueryTimer prices no record that moves no bytes or that ToAccessClass
  // cannot place, so the sample holds exactly the records the run was
  // costed by.
  auto priced = [&](const std::vector<TrafficRecord>& records) {
    std::vector<TrafficRecord> kept;
    for (const TrafficRecord& record : records) {
      if (record.bytes == 0) continue;
      if (!ToAccessClass(record, record.threads, pinning,
                         model.config().topology)
               .ok()) {
        continue;
      }
      kept.push_back(record);
    }
    return kept;
  };
  TelemetrySample sample;
  sample.query = priced(query);
  sample.background = priced(background);
  sample.pinning = pinning;
  return sample;
}

}  // namespace governor
}  // namespace pmemolap
