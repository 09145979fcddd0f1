#include "governor/governor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/runner.h"

namespace pmemolap {
namespace governor {
namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  if (names.empty()) return "-";
  std::string joined;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += '+';
    joined += names[i];
  }
  return joined;
}

/// The smallest thread count within kKneeTolerance of the peak of the
/// runner's Fig. 7 point: 4 KiB individual PMEM writes by threads pinned
/// to socket 0's cores, directory warm.
BandwidthGovernor::Knee FindWriteKnee(const MemSystemModel& model) {
  const WorkloadRunner runner(&model);
  RunOptions options;
  options.pinning = PinningPolicy::kCores;
  options.data_socket = 0;
  options.run_index = 2;

  int max_threads =
      std::max(model.config().topology.logical_cores_per_socket(), 1);
  std::vector<double> sweep(static_cast<size_t>(max_threads) + 1, 0.0);
  double peak = 0.0;
  for (int threads = 1; threads <= max_threads; ++threads) {
    Result<GigabytesPerSecond> gbps =
        runner.Bandwidth(OpType::kWrite, Pattern::kSequentialIndividual,
                         Media::kPmem, 4 * kKiB, threads, options);
    if (!gbps.ok()) continue;
    sweep[static_cast<size_t>(threads)] = gbps.value();
    peak = std::max(peak, gbps.value());
  }

  BandwidthGovernor::Knee knee;
  for (int threads = 1; threads <= max_threads; ++threads) {
    double gbps = sweep[static_cast<size_t>(threads)];
    if (peak > 0.0 && gbps >= (1.0 - kKneeTolerance) * peak) {
      knee.threads = threads;
      knee.gbps = gbps;
      return knee;
    }
  }
  knee.threads = max_threads;
  knee.gbps = peak;
  return knee;
}

}  // namespace

bool GovernorDecision::IsStaged(const std::string& name) const {
  return std::find(staged.begin(), staged.end(), name) != staged.end();
}

BandwidthGovernor::BandwidthGovernor(const MemSystemModel* model,
                                     GovernorConfig config)
    : model_(model), config_(config), write_knee_(FindWriteKnee(*model)) {}

std::string BandwidthGovernor::StageName(const std::string& label) {
  constexpr const char kProbePrefix[] = "probe-";
  if (label.rfind(kProbePrefix, 0) == 0) {
    return label.substr(sizeof(kProbePrefix) - 1);
  }
  if (label == "aggregate" || label == "intermediate") return "intermediates";
  return std::string();
}

std::vector<std::string> BandwidthGovernor::StageTargets(
    const TelemetrySample& sample, uint64_t* bytes) const {
  *bytes = 0;
  if (!config_.stage_structures) return {};

  // Merge per-class benefits into one candidate per structure name: the
  // DRAM bytes a staged copy would occupy and the modeled seconds per
  // quantum it would save.
  struct Candidate {
    uint64_t bytes = 0;
    double benefit_seconds = 0.0;
  };
  std::map<std::string, Candidate> merged;
  for (const ClassTelemetry& klass : sample.classes) {
    const TrafficRecord& record = klass.record;
    if (klass.background) continue;
    if (klass.gbps <= 0.0 || record.bytes == 0) continue;
    std::string name = StageName(record.label);
    if (name.empty()) continue;
    // A PMEM class is a fresh candidate; a DRAM class is only interesting
    // if it is DRAM *because we staged it* — then the benefit is judged
    // against its counterfactual PMEM rate, so the act of staging does
    // not erase the evidence that staging pays (no stage/evict flapping).
    const bool already_staged =
        record.media == Media::kDram && decision_.IsStaged(name);
    if (record.media != Media::kPmem && !already_staged) continue;

    // The same record on the other media, through the one record→class
    // translation: the rate the structure would see staged in DRAM
    // (candidates) or back on PMEM (retention). The sample does not carry
    // the run's pinning, so the counterfactual pins to cores.
    TrafficRecord other = record;
    other.media = already_staged ? Media::kPmem : Media::kDram;
    Result<AccessClass> other_class =
        ToAccessClass(other, other.threads, PinningPolicy::kCores,
                      model_->config().topology);
    if (!other_class.ok()) continue;
    WorkloadSpec spec;
    spec.classes.push_back(std::move(other_class.value()));
    double other_gbps = model_->EvaluateOnce(spec).total_gbps;
    double pmem_gbps = already_staged ? other_gbps : klass.gbps;
    double dram_gbps = already_staged ? klass.gbps : other_gbps;
    if (dram_gbps <= pmem_gbps) continue;

    double benefit = static_cast<double>(record.bytes) / 1e9 *
                     (1.0 / pmem_gbps - 1.0 / dram_gbps);
    Candidate& candidate = merged[name];
    candidate.bytes = std::max(candidate.bytes, record.region_bytes);
    candidate.benefit_seconds += benefit;
  }

  // The map iterates by name, so the staged set comes out sorted.
  std::vector<std::string> names;
  for (const auto& [name, candidate] : merged) {
    if (candidate.benefit_seconds < kStagingMinBenefitSeconds) continue;
    names.push_back(name);
    *bytes += candidate.bytes;
  }
  return names;
}

void BandwidthGovernor::Observe(const TelemetrySample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++decision_.quantum;
  const int quantum = decision_.quantum;

  double worst = sample.upi_capacity_factor;
  for (const SocketTelemetry& socket : sample.sockets) {
    worst = std::min(worst, socket.dimm_service_factor);
  }
  decision_.throttle = std::min(1.0, std::max(0.0, worst));

  // Targets for this quantum.
  const int write_target =
      std::clamp(WriteKnee().threads, kMinWriteThreads, kMaxWriteThreads);
  uint64_t stage_bytes = 0;
  const std::vector<std::string> stage_names =
      StageTargets(sample, &stage_bytes);

  // Hysteresis: a changed target actuates only after persisting for
  // kHysteresisQuanta consecutive quanta (Debounce).
  char line[192];

  if (writers_.Ready(decision_.write_threads, write_target,
                     kHysteresisQuanta)) {
    std::snprintf(line, sizeof(line), "q=%d commit writers %d->%d", quantum,
                  decision_.write_threads, write_target);
    log_.push_back(line);
    decision_.write_threads = write_target;
    writers_.Reset();
  }

  if (staged_.Ready(decision_.staged, stage_names, kHysteresisQuanta)) {
    std::snprintf(line, sizeof(line), "q=%d commit staged %s->%s", quantum,
                  JoinNames(decision_.staged).c_str(),
                  JoinNames(stage_names).c_str());
    log_.push_back(line);
    decision_.staged = stage_names;
    staged_.Reset();
  }
  // The committed set's footprint follows this quantum's sizes.
  if (stage_names == decision_.staged) decision_.staged_bytes = stage_bytes;
}

GovernorDecision BandwidthGovernor::decision() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decision_;
}

std::vector<std::string> BandwidthGovernor::actuator_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

}  // namespace governor
}  // namespace pmemolap
