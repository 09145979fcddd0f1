// BandwidthGovernor — a closed-loop controller that turns the paper's
// static best practices (§7) into runtime policy. Each scheduling quantum
// it ingests one TelemetrySample and drives three actuators:
//
//   1. Concurrency: readers scale up to the modeled bandwidth knee
//      (Fig. 3: sequential PMEM reads saturate the socket at ~10 threads),
//      writers clamp to the paper's 4-6 per socket (Fig. 7/8, BP2).
//   2. Morsel shaping: morsel byte ranges align to the 256 B XPLine so the
//      device model's read amplification on torn lines disappears (§3.1).
//   3. DRAM staging: hot randomly-probed structures are promoted to the
//      platform's per-socket DRAM (HybridPlacer::PlanStaging), evicted
//      when the benefit fades — the runtime form of the hybrid placement
//      plan.
//
// The knee, the writer window and the hysteresis are platform facts, so
// they are constants below; GovernorConfig holds only the two ablation
// switches. All decisions apply hysteresis (a new target must persist for
// kHysteresisQuanta consecutive quanta before actuation) so the controller
// converges deterministically instead of oscillating: same telemetry trace
// in, byte-identical actuator log out.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/debounce.h"
#include "core/hybrid.h"
#include "governor/telemetry.h"
#include "memsys/mem_system.h"

namespace pmemolap {
namespace governor {

/// Paper BP2: the writer-thread clamp per socket.
inline constexpr int kMinWriteThreads = 4;
inline constexpr int kMaxWriteThreads = 6;
/// Knee = smallest thread count within (1 - tolerance) of the sweep's
/// plateau bandwidth.
inline constexpr double kKneeTolerance = 0.02;
/// Consecutive quanta a changed target must persist before actuation.
inline constexpr int kHysteresisQuanta = 2;
/// Write-side demand occupancy above which readers are clamped to the
/// knee (pure-read workloads stay uncapped: more readers only help).
inline constexpr double kWritePressureFloor = 0.05;
/// Minimum modeled seconds per quantum a candidate must save to be worth
/// staging. Staging plans against the platform's per-socket DRAM.
inline constexpr double kStagingMinBenefitSeconds = 1e-6;

/// Actuator switches for ablation; both on by default. Concurrency always
/// adapts.
struct GovernorConfig {
  bool shape_morsels = true;
  bool stage_structures = true;
};

/// The actuator targets currently in force. Snapshot via decision().
struct GovernorDecision {
  /// Observe() quanta that produced this decision.
  int quantum = 0;
  /// Per-socket cap on concurrently popping workers; 0 = uncapped.
  std::vector<int> read_workers;
  /// Writer-thread clamp per socket (paper BP2).
  int write_threads = kMaxWriteThreads;
  /// Names of structures currently staged in DRAM, sorted.
  std::vector<std::string> staged;
  uint64_t staged_bytes = 0;

  bool IsStaged(const std::string& name) const;
};

class BandwidthGovernor {
 public:
  explicit BandwidthGovernor(const MemSystemModel* model,
                             GovernorConfig config = GovernorConfig());

  const GovernorConfig& config() const { return config_; }

  /// A concurrency knee: the smallest per-socket thread count whose
  /// modeled bandwidth reaches the sweep's plateau (within tolerance).
  struct Knee {
    int threads = 1;
    double gbps = 0.0;
  };
  /// The read knee of the runner's Fig. 3 sweep
  /// (`WorkloadRunner::Bandwidth`: 4 KiB individual PMEM reads, threads
  /// pinned to `socket`'s cores, directory warm), optionally under a DIMM
  /// throttle factor (a uniform throttle scales the sweep, so the knee's
  /// bandwidth drops while its thread count holds).
  Knee ReadKnee(int socket, double service_factor = 1.0) const;
  /// The write knee of the same sweep with writes, Fig. 7 (~4 threads).
  Knee WriteKnee(int socket, double service_factor = 1.0) const;

  /// One scheduling quantum: ingest a sample, update hysteresis state,
  /// commit actuator targets that persisted long enough.
  void Observe(const TelemetrySample& sample);

  /// Snapshot of the current actuator targets.
  GovernorDecision decision() const;

  /// Worst-case platform service factor seen in the last sample (DIMM
  /// throttle x UPI capacity), in [0,1]; 1.0 before any sample. Shared
  /// with admission control via qos::DegradationEstimate.
  double ThrottleEstimate() const;

  /// Deterministic, append-only record of every quantum and actuation.
  std::vector<std::string> actuator_log() const;

  int quanta_observed() const;

 private:
  Knee FindKnee(OpType op, int socket, double service_factor) const;

  /// Maps a traffic label to a stageable structure name ("probe-part" ->
  /// "part", "aggregate"/"intermediate" -> "intermediates"); empty if the
  /// class is not a staging candidate.
  static std::string StageName(const std::string& label);

  /// Computes this quantum's staging target set from the sample.
  std::vector<StagingCandidate> StageTargets(const TelemetrySample& sample,
                                             std::vector<std::string>* names)
      const;

  const MemSystemModel* model_;
  GovernorConfig config_;

  mutable std::mutex mutex_;
  GovernorDecision decision_;
  double throttle_estimate_ = 1.0;
  int quanta_ = 0;
  // Hysteresis per actuator; the committed targets live in decision_.
  Debounce<int> writers_;
  Debounce<std::vector<int>> readers_;
  Debounce<std::vector<std::string>> staged_;
  std::vector<std::string> log_;
};

}  // namespace governor
}  // namespace pmemolap
