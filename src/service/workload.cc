#include "service/workload.h"

#include <algorithm>
#include <cmath>

namespace pmemolap::service {

namespace {

/// Stable per-client stream seed: decorrelates neighboring client ids
/// (splitmix-style mixing) while staying a pure function of (seed, id).
uint64_t ClientSeed(uint64_t seed, uint64_t client, uint64_t salt) {
  uint64_t z = seed ^ (client * 0xD2B74407B1CE6E93ULL) ^
               (salt * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 27);
}

}  // namespace

Workload::Workload(const WorkloadConfig& config)
    : config_(config),
      query_zipf_(static_cast<uint64_t>(ssb::kNumQueries),
                  config.query_zipf_s),
      arrival_rng_(ClientSeed(config.seed, 0, /*salt=*/0xA881)) {
  // Seeded Fisher-Yates over the kernels: the Zipf head lands on a
  // seed-chosen query, not always Q1.1.
  query_rank_ = ssb::AllQueries();
  Rng shuffle(ClientSeed(config_.seed, 0, /*salt=*/0x5883));
  for (size_t i = query_rank_.size(); i > 1; --i) {
    std::swap(query_rank_[i - 1],
              query_rank_[shuffle.NextBelow(static_cast<uint64_t>(i))]);
  }
  client_rng_.reserve(config_.num_clients);
  for (uint64_t c = 0; c < config_.num_clients; ++c) {
    client_rng_.emplace_back(ClientSeed(config_.seed, c, /*salt=*/0xC11E));
  }
}

ClientProfile Workload::ProfileOf(uint64_t client) const {
  // Derived from a dedicated fork so the profile never consumes the
  // client's traffic stream (submitting more queries cannot change who a
  // client *is*).
  Rng rng(ClientSeed(config_.seed, client, /*salt=*/0xBEEF));
  ClientProfile profile;
  const double u = rng.NextDouble();
  if (u < config_.high_fraction) {
    profile.priority = qos::QueryPriority::kHigh;
    profile.deadline_seconds = config_.high_deadline_seconds;
  } else if (u < config_.high_fraction + config_.batch_fraction) {
    profile.priority = qos::QueryPriority::kBatch;
    profile.deadline_seconds = config_.batch_deadline_seconds;
  } else {
    profile.priority = qos::QueryPriority::kNormal;
    profile.deadline_seconds = config_.normal_deadline_seconds;
  }
  profile.shed_retry_budget = config_.shed_retry_budget;
  return profile;
}

ssb::QueryId Workload::NextQuery(uint64_t client) {
  Rng& rng = client_rng_[client];
  return query_rank_[query_zipf_.Sample(rng)];
}

double Workload::NextThink(uint64_t client) {
  return SampleExponential(client_rng_[client], config_.mean_think_seconds);
}

double Workload::NextBackoff(uint64_t client) {
  return SampleExponential(client_rng_[client], config_.retry_backoff_seconds);
}

double Workload::NextInterarrival() {
  const double rate = std::max(config_.arrival_rate_qps, 1e-9);
  return SampleExponential(arrival_rng_, 1.0 / rate);
}

uint64_t Workload::NextArrivalClient() {
  const uint64_t client = next_client_;
  next_client_ = (next_client_ + 1) % std::max<uint64_t>(1, config_.num_clients);
  return client;
}

double Workload::SampleExponential(Rng& rng, double mean) {
  if (mean <= 0.0) return 0.0;
  const double u = std::min(rng.NextDouble(), 1.0 - 1e-12);
  return -mean * std::log1p(-u);
}

}  // namespace pmemolap::service
