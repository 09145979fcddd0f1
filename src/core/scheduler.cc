#include "core/scheduler.h"

#include <algorithm>
#include <cstdio>

namespace pmemolap {

Result<ScheduleDecision> MixedWorkloadScheduler::Decide(
    const MixedJobs& jobs) const {
  if (jobs.read_bytes == 0 || jobs.write_bytes == 0) {
    return Status::InvalidArgument(
        "both jobs must move data (a single job needs no schedule)");
  }
  ScheduleDecision decision;
  RunOptions options;

  PMEMOLAP_ASSIGN_OR_RETURN(
      decision.read_solo_gbps,
      runner_.Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                        Media::kPmem, jobs.access_size, jobs.read_threads,
                        options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      decision.write_solo_gbps,
      runner_.Bandwidth(OpType::kWrite, Pattern::kSequentialIndividual,
                        Media::kPmem, jobs.access_size, jobs.write_threads,
                        options));

  PMEMOLAP_ASSIGN_OR_RETURN(
      BandwidthResult mixed,
      runner_.Mixed(jobs.write_threads, jobs.read_threads, Media::kPmem,
                    jobs.access_size));
  decision.write_mixed_gbps = mixed.per_class[0].gbps;
  decision.read_mixed_gbps = mixed.per_class[1].gbps;

  double read_gb = static_cast<double>(jobs.read_bytes) / 1e9;
  double write_gb = static_cast<double>(jobs.write_bytes) / 1e9;

  // Serial: phases back to back at solo bandwidth.
  decision.serial_seconds = read_gb / decision.read_solo_gbps +
                            write_gb / decision.write_solo_gbps;

  // Mixed: both run jointly until the shorter job drains; the survivor
  // finishes at its solo bandwidth.
  double read_mixed_time = read_gb / decision.read_mixed_gbps;
  double write_mixed_time = write_gb / decision.write_mixed_gbps;
  double joint = std::min(read_mixed_time, write_mixed_time);
  double tail;
  if (read_mixed_time > write_mixed_time) {
    double remaining = read_gb * (1.0 - joint / read_mixed_time);
    tail = remaining / decision.read_solo_gbps;
  } else {
    double remaining = write_gb * (1.0 - joint / write_mixed_time);
    tail = remaining / decision.write_solo_gbps;
  }
  decision.mixed_seconds = joint + tail;

  decision.serialize = decision.serial_seconds <= decision.mixed_seconds;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%s: serial %.2fs vs mixed %.2fs (mixed drops reads %.0f->%.0f "
      "GB/s, writes %.1f->%.1f GB/s)",
      decision.serialize ? "serialize" : "run mixed",
      decision.serial_seconds, decision.mixed_seconds,
      decision.read_solo_gbps, decision.read_mixed_gbps,
      decision.write_solo_gbps, decision.write_mixed_gbps);
  decision.rationale = buf;
  return decision;
}

Result<ScheduleDecision> MixedWorkloadScheduler::DecideDegraded(
    const MixedJobs& jobs, const MemSystemModel* degraded_model) const {
  if (degraded_model == nullptr) {
    return Status::InvalidArgument("degraded model must not be null");
  }
  // Plan at the degraded rates: both the serialize-vs-mix call and the
  // makespans must reflect what the throttled platform can actually serve.
  MixedWorkloadScheduler degraded_scheduler(degraded_model);
  PMEMOLAP_ASSIGN_OR_RETURN(ScheduleDecision decision,
                            degraded_scheduler.Decide(jobs));
  PMEMOLAP_ASSIGN_OR_RETURN(ScheduleDecision healthy, Decide(jobs));
  decision.degraded_mode = true;
  decision.healthy_seconds =
      decision.serialize ? healthy.serial_seconds : healthy.mixed_seconds;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "[degraded platform] %s; chosen plan takes %.2fs degraded "
                "vs %.2fs healthy%s",
                decision.rationale.c_str(),
                decision.serialize ? decision.serial_seconds
                                   : decision.mixed_seconds,
                decision.healthy_seconds,
                decision.serialize != healthy.serialize
                    ? " (throttling flipped the serialize-vs-mix call)"
                    : "");
  decision.rationale = buf;
  return decision;
}

}  // namespace pmemolap
