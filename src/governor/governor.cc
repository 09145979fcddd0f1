#include "governor/governor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/profile.h"
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
    const TelemetrySample& sample) {
  if (!config_.stage_structures) return {};

  // The run's standing background, as the timer builds it.
  const std::vector<AccessClass> standing = StandingClasses(
      sample.background, sample.pinning, model_->config().topology);

  // One candidate per structure the sample probes: the DRAM bytes a
  // staged copy occupies and the modeled seconds per quantum staging
  // saves. Each record is priced on PMEM and on DRAM, both among the
  // standing background only, as the timer prices its phase: pricing it
  // jointly with the query's other phases would count them as contenders
  // and read differently once the structure moves, so judging by it would
  // flip the placement it measures.
  struct Candidate {
    uint64_t bytes = 0;
    double benefit_seconds = 0.0;
  };
  std::map<std::string, Candidate> probed;
  for (const TrafficRecord& sampled : sample.query) {
    if (sampled.bytes == 0) continue;
    const std::string name = StageName(sampled.label);
    if (name.empty()) continue;
    // A structure off PMEM is a candidate only while staging put it there.
    if (sampled.media != Media::kPmem && !decision_.IsStaged(name)) continue;
    TrafficRecord record = sampled;
    record.media = Media::kPmem;
    const double pmem_gbps =
        RecordGbpsAmong(*model_, record, sample.pinning, standing);
    record.media = Media::kDram;
    const double dram_gbps =
        RecordGbpsAmong(*model_, record, sample.pinning, standing);
    Candidate& candidate = probed[name];
    candidate.bytes = std::max(candidate.bytes, record.region_bytes);
    if (pmem_gbps > 0.0 && dram_gbps > pmem_gbps) {
      candidate.benefit_seconds += static_cast<double>(record.bytes) / 1e9 *
                                   (1.0 / pmem_gbps - 1.0 / dram_gbps);
    }
  }

  // No evidence, no move: a committed structure the sample does not probe
  // stays staged; a probed one stays or goes on its benefit.
  std::vector<std::string> names;
  for (const std::string& name : decision_.staged) {
    if (probed.count(name) == 0) names.push_back(name);
  }
  for (const auto& [name, candidate] : probed) {
    seen_bytes_[name] = candidate.bytes;
    if (candidate.benefit_seconds >= kStagingMinBenefitSeconds) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void BandwidthGovernor::Observe(const TelemetrySample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++decision_.quantum;
  const int quantum = decision_.quantum;

  // Targets for this quantum.
  const int write_target =
      std::clamp(WriteKnee().threads, BestPracticesAdvisor::kMinWriteThreads,
                 BestPracticesAdvisor::kMaxWriteThreads);
  const std::vector<std::string> stage_names = StageTargets(sample);

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
  // The committed set's footprint, each structure at its last-seen size.
  decision_.staged_bytes = 0;
  for (const std::string& name : decision_.staged) {
    decision_.staged_bytes += seen_bytes_[name];
  }
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
