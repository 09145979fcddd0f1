// BandwidthGovernor — a closed-loop controller that turns the paper's
// static best practices (§7) into runtime policy. Each scheduling quantum
// it ingests one TelemetrySample (the run's traffic records and pinning)
// and drives three actuators:
//
//   1. Writer clamp: PMEM writers clamp to the modeled write knee within
//      the paper's 4-6 per socket (Fig. 7/8, BP2: the advisor's
//      BestPracticesAdvisor::kMinWriteThreads/kMaxWriteThreads).
//   2. Morsel shaping: morsel byte ranges align to the 256 B XPLine so the
//      device model's read amplification on torn lines disappears (§3.1).
//   3. DRAM staging: hot randomly-probed structures whose modeled benefit
//      clears kStagingMinBenefitSeconds are promoted to DRAM and stay
//      there until a quantum that probes them prices the benefit below it
//      — the runtime form of the hybrid placement plan.
//
// Readers are never capped: the model's read bandwidth is monotone in
// threads (Fig. 3), so a reader cap could only idle host workers. Nor
// does the governor read platform health: admission control reads the
// fault injector's throttle state itself (qos::DegradationEstimate).
//
// The write knee, the hysteresis and the staging floor are platform
// facts: the knee is swept once, at construction, on the governor's own
// model (a DIMM throttle scales the sweep's plateau and may pull the raw
// knee down a thread, but never moves its BP2-clamped count, which is all
// Observe reads), and the rest are constants below; GovernorConfig holds
// only the two ablation switches. All decisions apply hysteresis (a new
// target must persist for kHysteresisQuanta consecutive quanta before
// actuation) so the controller converges deterministically instead of
// oscillating: same telemetry trace in, byte-identical actuator log out.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/debounce.h"
#include "core/advisor.h"
#include "governor/telemetry.h"
#include "memsys/mem_system.h"

namespace pmemolap {
namespace governor {

/// Knee = smallest thread count within (1 - tolerance) of the sweep's
/// plateau bandwidth.
inline constexpr double kKneeTolerance = 0.02;
/// Consecutive quanta a changed target must persist before actuation.
inline constexpr int kHysteresisQuanta = 2;
/// Minimum modeled seconds per quantum a candidate must save to be worth
/// staging. Every candidate above it stages: the TierManager's budgets are
/// the one configurable DRAM budget.
inline constexpr double kStagingMinBenefitSeconds = 1e-6;

/// Actuator switches for ablation; both on by default. The writer clamp
/// always adapts.
struct GovernorConfig {
  bool shape_morsels = true;
  bool stage_structures = true;
};

/// The actuator targets currently in force. Snapshot via decision().
struct GovernorDecision {
  /// Observe() quanta that produced this decision.
  int quantum = 0;
  /// Writer-thread clamp per socket (paper BP2).
  int write_threads = BestPracticesAdvisor::kMaxWriteThreads;
  /// Names of structures currently staged in DRAM, sorted.
  std::vector<std::string> staged;
  uint64_t staged_bytes = 0;

  bool IsStaged(const std::string& name) const;
};

class BandwidthGovernor {
 public:
  /// Sweeps the write knee of socket 0 on `model`, which must outlive the
  /// governor.
  explicit BandwidthGovernor(const MemSystemModel* model,
                             GovernorConfig config = GovernorConfig());

  const GovernorConfig& config() const { return config_; }

  /// A concurrency knee: the smallest per-socket thread count whose
  /// modeled bandwidth reaches the sweep's plateau (within tolerance).
  struct Knee {
    int threads = 1;
    double gbps = 0.0;
  };
  /// The write knee of the runner's Fig. 7 sweep
  /// (`WorkloadRunner::Bandwidth`: 4 KiB individual PMEM writes, threads
  /// pinned to socket 0's cores, directory warm) on the model as built
  /// (~4 threads).
  Knee WriteKnee() const { return write_knee_; }

  /// One scheduling quantum: ingest a sample, update hysteresis state,
  /// commit actuator targets that persisted long enough.
  void Observe(const TelemetrySample& sample);

  /// Snapshot of the current actuator targets.
  GovernorDecision decision() const;

  /// Deterministic, append-only record of every committed actuation.
  std::vector<std::string> actuator_log() const;

 private:
  /// Maps a traffic label to a stageable structure name ("probe-part" ->
  /// "part", "aggregate"/"intermediate" -> "intermediates"); empty if the
  /// class is not a staging candidate.
  static std::string StageName(const std::string& label);

  /// This quantum's staging targets, sorted by name: every probed
  /// structure whose benefit, its records priced on PMEM and on DRAM
  /// among the standing background (RecordGbpsAmong), reaches
  /// kStagingMinBenefitSeconds, plus every staged structure the sample
  /// does not probe. Records each probed structure's size in seen_bytes_.
  std::vector<std::string> StageTargets(const TelemetrySample& sample);

  const MemSystemModel* model_;
  GovernorConfig config_;
  const Knee write_knee_;

  mutable std::mutex mutex_;
  GovernorDecision decision_;
  // Hysteresis per actuator; the committed targets live in decision_.
  Debounce<int> writers_;
  Debounce<std::vector<std::string>> staged_;
  /// Each structure's DRAM footprint when a sample last probed it.
  std::map<std::string, uint64_t> seen_bytes_;
  std::vector<std::string> log_;
};

}  // namespace governor
}  // namespace pmemolap
