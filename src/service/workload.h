// Workload — deterministic multi-tenant traffic generation for the
// QueryService.
//
// N simulated client streams submit SSB queries against the service on
// the *modeled* timeline: a closed-loop model (each client thinks, then
// submits, then waits for its answer) or an open-loop model (arrivals
// form a seeded Poisson-like process, independent of completions — the
// shape that exposes queueing collapse, since arrivals never slow down
// when the server does). Query identity is Zipf-skewed over the 13 SSB
// kernels, and every client carries a deterministic QoS profile —
// priority class, modeled deadline, shed-retry budget — derived from a
// per-client Rng fork, so the same seed always builds the same tenant
// population. No host time, no host entropy: this layer feeds modeled
// numbers and must replay bit-identically (lint: service is a
// deterministic layer).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/zipf.h"
#include "qos/query_options.h"
#include "ssb/queries.h"

namespace pmemolap::service {

enum class ArrivalModel {
  /// Each client loops: think (exponential), submit, wait for the result.
  /// Load self-throttles when the service slows down.
  kClosedLoop,
  /// Arrivals are a global seeded exponential-interarrival process at
  /// `arrival_rate_qps`, assigned round-robin to clients. Load does NOT
  /// slow down with the service — the overload-honest model.
  kOpenLoop,
};

struct WorkloadConfig {
  uint64_t num_clients = 1000;
  ArrivalModel arrival = ArrivalModel::kClosedLoop;
  /// Closed loop: mean think time between a client's completion and its
  /// next submission, modeled seconds (exponentially distributed).
  double mean_think_seconds = 4.0;
  /// Open loop: aggregate arrival rate, queries per modeled second.
  double arrival_rate_qps = 50.0;
  /// Zipf exponent of the query mix over the 13 SSB kernels (0 =
  /// uniform). Rank order is itself a seeded shuffle, so which query is
  /// "hot" varies by seed, not by enum position.
  double query_zipf_s = 1.0;
  /// Priority mix: P(high), P(batch); the rest are normal.
  double high_fraction = 0.2;
  double batch_fraction = 0.2;
  /// Modeled deadline per priority class, seconds from submission
  /// (<= 0 = no deadline for that class).
  double high_deadline_seconds = 2.0;
  double normal_deadline_seconds = 8.0;
  double batch_deadline_seconds = 0.0;
  /// Resubmissions a client may spend after a shed (admission refusal),
  /// and the mean modeled backoff before each (exponential).
  int shed_retry_budget = 2;
  double retry_backoff_seconds = 0.25;
  /// Seed of the whole tenant population and both arrival processes.
  uint64_t seed = 0x5EED;
};

/// Fixed QoS identity of one client stream.
struct ClientProfile {
  qos::QueryPriority priority = qos::QueryPriority::kNormal;
  /// Modeled seconds this client allows per query (<= 0: none).
  double deadline_seconds = 0.0;
  int shed_retry_budget = 0;
};

/// Deterministic traffic source. All sampling draws from forks of the
/// config seed; two Workload instances with equal configs emit identical
/// streams regardless of call interleaving *per stream* (each client and
/// the arrival process own private Rng states).
class Workload {
 public:
  explicit Workload(const WorkloadConfig& config);

  const WorkloadConfig& config() const { return config_; }

  /// The fixed QoS profile of `client` (derived, not stored: O(1) memory
  /// in the client count).
  ClientProfile ProfileOf(uint64_t client) const;

  /// Next query for `client`'s stream (Zipf over the shuffled kernels).
  ssb::QueryId NextQuery(uint64_t client);

  /// Closed loop: modeled think time before `client`'s next submission.
  double NextThink(uint64_t client);

  /// Modeled backoff before `client` resubmits a shed query
  /// (exponential around retry_backoff_seconds).
  double NextBackoff(uint64_t client);

  /// Open loop: modeled gap to the next global arrival, and the client
  /// that owns it (round-robin).
  double NextInterarrival();
  uint64_t NextArrivalClient();

 private:
  /// Exponential draw with `mean` from `rng` (inverse CDF; the draw is
  /// clamped away from u == 1 so the result is finite).
  static double SampleExponential(Rng& rng, double mean);

  WorkloadConfig config_;
  ZipfSampler query_zipf_;
  /// Seeded shuffle of the 13 kernels: Zipf rank r maps to query_rank_[r].
  std::vector<ssb::QueryId> query_rank_;
  /// One private 8-byte Rng per client: streams are independent of each
  /// other and of the grant/completion interleaving the service imposes.
  std::vector<Rng> client_rng_;
  Rng arrival_rng_;
  uint64_t next_client_ = 0;
};

}  // namespace pmemolap::service
