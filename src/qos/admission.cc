#include "qos/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace pmemolap::qos {

void AdmissionTicket::Release() {
  if (controller_ == nullptr) return;
  controller_->Release();
  controller_ = nullptr;
}

AdmissionController::AdmissionController(AdmissionLimits limits)
    : limits_(limits) {}

void AdmissionController::SetLoadSignal(const LoadSignal& signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  signal_ = signal;
}

LoadSignal AdmissionController::load_signal() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return signal_;
}

int AdmissionController::EffectiveQueueLimitLocked(
    QueryPriority priority) const {
  int base = 0;
  switch (priority) {
    case QueryPriority::kHigh:
      base = limits_.high_queue;
      break;
    case QueryPriority::kNormal:
      base = limits_.normal_queue;
      if (signal_.degradation < kShedNormalBelow) return 0;
      break;
    case QueryPriority::kBatch:
      base = limits_.batch_queue;
      if (signal_.degradation < kShedBatchBelow) return 0;
      break;
  }
  // Executor runs queued beyond the concurrency target mean the pool is
  // already behind; each such run eats one slot of queue room.
  const int excess =
      std::max(0, signal_.executor_depth - limits_.max_concurrent);
  return std::max(0, base - excess);
}

int AdmissionController::EffectiveQueueLimit(QueryPriority priority) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return EffectiveQueueLimitLocked(priority);
}

bool AdmissionController::SlotOpenLocked() const {
  return !recovery_paused_ && running_ < std::max(1, limits_.max_concurrent);
}

bool AdmissionController::CanRunLocked(int priority) const {
  if (!SlotOpenLocked() || StarvedClassLocked() >= 0) return false;
  for (int p = 0; p <= priority; ++p) {
    if (!queue_[p].empty()) return false;  // FIFO: queued waiters first
  }
  return true;
}

int AdmissionController::StarvedClassLocked() const {
  for (int p = 0; p < kNumPriorities; ++p) {
    if (!queue_[p].empty() && bypass_grants_[p] >= kAgingGrants) {
      return p;
    }
  }
  return -1;
}

int AdmissionController::NextClassLocked() const {
  if (!SlotOpenLocked()) return -1;
  // An aged class holds the reservation for this slot, even past
  // higher-priority waiters — this is what bounds every waiter's delay
  // under sustained high-priority traffic.
  const int starved = StarvedClassLocked();
  if (starved >= 0) return starved;
  for (int p = 0; p < kNumPriorities; ++p) {
    if (!queue_[p].empty()) return p;
  }
  return -1;
}

Status AdmissionController::EnqueueLocked(uint64_t id,
                                          QueryPriority priority) {
  const int p = static_cast<int>(priority);
  const bool must_wait = !CanRunLocked(p);
  const int limit = EffectiveQueueLimitLocked(priority);
  if (must_wait && queue_[p].size() >= static_cast<size_t>(limit)) {
    ++counters_.shed;
    return Status::ResourceExhausted(
        std::string("admission queue full for priority ") +
        QueryPriorityName(priority) + " (limit " + std::to_string(limit) +
        ")");
  }
  queue_[p].push_back(id);
  if (must_wait) {
    uint64_t total_waiting = 0;
    for (const std::deque<uint64_t>& queue : queue_) {
      total_waiting += queue.size();
    }
    counters_.peak_waiting = std::max(counters_.peak_waiting, total_waiting);
  }
  return Status::OK();
}

AdmissionTicket AdmissionController::GrantLocked(int priority) {
  // Only a reservation passes over a queued higher-priority waiter.
  for (int p = 0; p < priority; ++p) {
    if (!queue_[p].empty()) {
      ++counters_.aged_grants;
      break;
    }
  }
  bypass_grants_[priority] = 0;
  for (int p = priority + 1; p < kNumPriorities; ++p) {
    if (!queue_[p].empty()) ++bypass_grants_[p];
  }
  ++running_;
  counters_.peak_running = std::max<uint64_t>(
      counters_.peak_running, static_cast<uint64_t>(running_));
  ++counters_.admitted;
  return AdmissionTicket(this);
}

Result<AdmissionTicket> AdmissionController::TryAdmit(
    QueryPriority priority) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recovery_paused_) {
    ++counters_.shed;
    return Status::Unavailable("admission paused (recovery in progress)");
  }
  const int p = static_cast<int>(priority);
  if (!CanRunLocked(p)) {
    ++counters_.shed;
    return Status::ResourceExhausted(
        std::string("admission refused (no free slot, priority ") +
        QueryPriorityName(priority) + ")");
  }
  return GrantLocked(p);
}

Result<AdmissionTicket> AdmissionController::Admit(QueryPriority priority,
                                                   CancelToken* token) {
  std::unique_lock<std::mutex> lock(mutex_);
  const int p = static_cast<int>(priority);
  // Deadline precedence: a token that has already expired never admits
  // and never sheds — the deadline, not the queue, is what failed, so the
  // caller gets the token's terminal status (kDeadlineExceeded) even when
  // the class queue is also full.
  if (token != nullptr) {
    Status expired = token->Check();
    if (!expired.ok()) {
      ++counters_.expired_waiting;
      return expired;
    }
  }
  const uint64_t id = next_blocking_id_++;
  PMEMOLAP_RETURN_NOT_OK(EnqueueLocked(id, priority));
  std::deque<uint64_t>& queue = queue_[p];
  while (NextClassLocked() != p || queue.front() != id) {
    if (token != nullptr) {
      Status expired = token->Check();
      if (!expired.ok()) {
        queue.erase(std::find(queue.begin(), queue.end(), id));
        // A class with no waiters holds no reservation: a future
        // waiter must age on its own, not inherit this one's credit.
        if (queue.empty()) bypass_grants_[p] = 0;
        ++counters_.expired_waiting;
        cv_.notify_all();  // a higher-priority hole may have opened
        return expired;
      }
    }
    // Short slices instead of a wait-until: the token may carry a
    // modeled deadline no host time_point can represent.
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  queue.pop_front();
  AdmissionTicket ticket = GrantLocked(p);
  cv_.notify_all();  // the next head may take another open slot
  return ticket;
}

Status AdmissionController::Enqueue(uint64_t id, QueryPriority priority,
                                    bool expired) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (expired) {
    ++counters_.expired_waiting;
    return Status::DeadlineExceeded("deadline passed before admission");
  }
  return EnqueueLocked(id, priority);
}

std::optional<AdmissionGrant> AdmissionController::GrantNext() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int p = NextClassLocked();
  if (p < 0) return std::nullopt;
  const uint64_t id = queue_[p].front();
  queue_[p].pop_front();
  return AdmissionGrant{id, GrantLocked(p)};
}

std::vector<uint64_t> AdmissionController::WithdrawExpired(
    const std::function<bool(uint64_t)>& expired) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> withdrawn;
  for (int p = 0; p < kNumPriorities; ++p) {
    std::deque<uint64_t>& queue = queue_[p];
    for (auto it = queue.begin(); it != queue.end();) {
      if (expired(*it)) {
        withdrawn.push_back(*it);
        it = queue.erase(it);
        ++counters_.expired_waiting;
      } else {
        ++it;
      }
    }
    // Grants reset the credit of a class they empty; expiry does too.
    if (queue.empty()) bypass_grants_[p] = 0;
  }
  return withdrawn;
}

void AdmissionController::PauseForRecovery() {
  std::lock_guard<std::mutex> lock(mutex_);
  recovery_paused_ = true;
}

void AdmissionController::ResumeAfterRecovery() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recovery_paused_ = false;
  }
  cv_.notify_all();
}

bool AdmissionController::recovery_paused() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovery_paused_;
}

void AdmissionController::Release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    ++counters_.completed;
  }
  cv_.notify_all();
}

AdmissionCounters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

int AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

int AdmissionController::waiting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const std::deque<uint64_t>& queue : queue_) total += queue.size();
  return static_cast<int>(total);
}

double DegradationEstimate(const FaultInjector& injector) {
  double worst_dimm = 1.0;
  for (const ThrottleWindow& window : injector.spec().throttle_windows) {
    if (window.Contains(injector.now())) {
      worst_dimm =
          std::min(worst_dimm, injector.DimmServiceFactor(window.socket));
    }
  }
  return std::clamp(std::min(worst_dimm, injector.UpiCapacityFactor()), 0.0,
                    1.0);
}

}  // namespace pmemolap::qos
