#include "qos/cancel_token.h"

#include <string>
#include <utility>

namespace pmemolap::qos {

const char* QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kHigh:
      return "high";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

void CancelToken::ArmWall(double budget_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  wall_armed_ = true;
  wall_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget_seconds));
}

void CancelToken::ArmModeled(double deadline_seconds,
                             std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (clock == nullptr) return;
  modeled_armed_ = true;
  modeled_deadline_seconds_ = deadline_seconds;
  modeled_clock_ = std::move(clock);
}

Status CancelToken::Check() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!status_.ok()) return status_;
  if (wall_armed_ &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    status_ = Status::DeadlineExceeded("wall-clock deadline expired");
  } else if (modeled_armed_ &&
             modeled_clock_() >= modeled_deadline_seconds_) {
    status_ = Status::DeadlineExceeded(
        "modeled deadline expired at platform time " +
        std::to_string(modeled_deadline_seconds_) + " s");
  }
  return status_;
}

bool CancelToken::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !status_.ok();
}

void ArmFromOptions(CancelToken* token, const QueryOptions& options,
                    std::function<double()> default_modeled_clock) {
  if (options.deadline.wall_budget_seconds >= 0.0) {
    token->ArmWall(options.deadline.wall_budget_seconds);
  }
  if (options.deadline.modeled_deadline_seconds >= 0.0) {
    std::function<double()> clock = options.modeled_clock
                                        ? options.modeled_clock
                                        : std::move(default_modeled_clock);
    token->ArmModeled(options.deadline.modeled_deadline_seconds,
                      std::move(clock));
  }
}

}  // namespace pmemolap::qos
