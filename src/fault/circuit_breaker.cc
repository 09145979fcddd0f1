#include "fault/circuit_breaker.h"

#include <algorithm>

namespace pmemolap {

void CircuitBreaker::PruneWindow(double now) {
  while (!escalation_times_.empty() &&
         escalation_times_.front() < now - options_.window_seconds) {
    escalation_times_.pop_front();
  }
}

BreakerDecision CircuitBreaker::Decide(double now) {
  switch (state_) {
    case BreakerState::kClosed:
      return BreakerDecision::kNormal;
    case BreakerState::kOpen:
      if (now - opened_at_ >= options_.cooldown_seconds) {
        state_ = BreakerState::kHalfOpen;
        ++counters_.probes;
        return BreakerDecision::kProbe;
      }
      ++counters_.bypasses;
      return BreakerDecision::kBypass;
    case BreakerState::kHalfOpen:
      ++counters_.probes;
      return BreakerDecision::kProbe;
  }
  return BreakerDecision::kNormal;
}

void CircuitBreaker::RecordEscalation(double now) {
  ++counters_.escalations;
  if (state_ != BreakerState::kClosed) return;
  escalation_times_.push_back(now);
  PruneWindow(now);
  if (static_cast<int>(escalation_times_.size()) >=
      std::max(1, options_.trip_threshold)) {
    state_ = BreakerState::kOpen;
    opened_at_ = now;
    escalation_times_.clear();
    ++counters_.trips;
  }
}

void CircuitBreaker::RecordProbe(bool healthy, double now) {
  if (state_ != BreakerState::kHalfOpen) return;
  if (healthy) {
    state_ = BreakerState::kClosed;
    escalation_times_.clear();
    ++counters_.restores;
  } else {
    state_ = BreakerState::kOpen;
    opened_at_ = now;
    ++counters_.reopens;
  }
}

BreakerBoard::BreakerBoard(const FaultInjector* injector, int sockets,
                           BreakerOptions options)
    : injector_(injector) {
  const int n = std::max(1, sockets);
  breakers_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) breakers_.emplace_back(options);
}

BreakerDecision BreakerBoard::Decide(int socket) {
  std::lock_guard<std::mutex> lock(mutex_);
  return breakers_[DomainOf(socket)].Decide(injector_->now());
}

void BreakerBoard::RecordEscalation(int socket) {
  std::lock_guard<std::mutex> lock(mutex_);
  breakers_[DomainOf(socket)].RecordEscalation(injector_->now());
}

void BreakerBoard::RecordProbe(int socket, bool healthy) {
  std::lock_guard<std::mutex> lock(mutex_);
  breakers_[DomainOf(socket)].RecordProbe(healthy, injector_->now());
}

bool BreakerBoard::Quarantined(int socket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breakers_[DomainOf(socket)].state() == BreakerState::kOpen;
}

BreakerState BreakerBoard::state(int socket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breakers_[DomainOf(socket)].state();
}

std::vector<bool> BreakerBoard::HealthySockets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<bool> healthy(breakers_.size(), true);
  for (size_t s = 0; s < breakers_.size(); ++s) {
    healthy[s] = breakers_[s].state() != BreakerState::kOpen;
  }
  return healthy;
}

BreakerCounters BreakerBoard::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BreakerCounters total;
  for (const CircuitBreaker& breaker : breakers_) {
    const BreakerCounters& c = breaker.counters();
    total.escalations += c.escalations;
    total.trips += c.trips;
    total.bypasses += c.bypasses;
    total.probes += c.probes;
    total.restores += c.restores;
    total.reopens += c.reopens;
  }
  return total;
}

BreakerCounters BreakerBoard::domain_counters(int socket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breakers_[DomainOf(socket)].counters();
}

}  // namespace pmemolap
