// MixedWorkloadScheduler — insight #11 as a decision procedure.
//
// The paper: "As the bandwidth is impacted notably, for latency
// insensitive workloads it might be beneficial to execute them
// sequentially instead of parallel. However, this is highly
// workload-dependent and cannot be generalized." This class makes the
// workload-dependent call with the model instead of a rule of thumb:
// given a read job and a write job on the same socket's PMEM, it compares
// the serial makespan (each phase at its solo bandwidth) against the mixed
// makespan (joint evaluation; when the shorter job drains, the survivor
// finishes at its solo bandwidth).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/runner.h"
#include "memsys/mem_system.h"

namespace pmemolap {

/// A pair of jobs contending for one socket's PMEM.
struct MixedJobs {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  int read_threads = 18;
  int write_threads = 6;
  uint64_t access_size = 4 * kKiB;
};

/// The scheduler's verdict with the modeled evidence.
struct ScheduleDecision {
  bool serialize = false;
  double serial_seconds = 0.0;
  double mixed_seconds = 0.0;
  /// Solo and contended bandwidths backing the decision.
  GigabytesPerSecond read_solo_gbps = 0.0;
  GigabytesPerSecond write_solo_gbps = 0.0;
  GigabytesPerSecond read_mixed_gbps = 0.0;
  GigabytesPerSecond write_mixed_gbps = 0.0;
  /// True when the plan was made against a degraded platform model (an
  /// active thermal-throttle window or UPI degradation).
  bool degraded_mode = false;
  /// Makespan the chosen plan would have had on the healthy platform —
  /// the cost of the fault, for reporting.
  double healthy_seconds = 0.0;
  std::string rationale;
};

class MixedWorkloadScheduler {
 public:
  explicit MixedWorkloadScheduler(const MemSystemModel* model)
      : model_(model), runner_(model) {}

  /// Decides whether to serialize the two jobs. Fails on empty jobs or
  /// invalid thread counts.
  Result<ScheduleDecision> Decide(const MixedJobs& jobs) const;

  /// Degraded-bandwidth mode: re-plans against `degraded_model` (the
  /// healthy model with an active throttle window / degraded UPI applied,
  /// see FaultInjector::Degrade). The serialize-vs-mix call is re-made at
  /// the degraded rates — a decision that was marginal when healthy can
  /// flip under throttling — and the healthy makespan is reported
  /// alongside for comparison.
  Result<ScheduleDecision> DecideDegraded(
      const MixedJobs& jobs, const MemSystemModel* degraded_model) const;

 private:
  const MemSystemModel* model_;
  WorkloadRunner runner_;
};

}  // namespace pmemolap
