// AdmissionController — bounded admission in front of the executor.
//
// PMEM bandwidth collapses under unmanaged concurrency (PAPER.md §4–5):
// past the saturation point every extra query slows *all* queries, so the
// robust move is to refuse work the system cannot absorb. The controller
// keeps a fixed number of queries running, queues a bounded number per
// priority class, and sheds the rest fast with kResourceExhausted. The
// queue bounds shrink under backpressure — executor run-queue depth
// (WorkStealingPool::inflight_runs) plus the fault injector's degradation
// estimate — so a throttled or fault-ridden platform admits less, and
// batch work is shed first.
//
// The controller owns its wait queues: one FIFO of waiter ids per class.
// Two kinds of caller share them. Host threads block in Admit. An
// event-driven caller that keeps its own clock (QueryService, on modeled
// time) drives the same queues and policy through the event entry —
// Enqueue, GrantNext, WithdrawExpired — and nothing blocks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "qos/cancel_token.h"
#include "qos/query_options.h"

namespace pmemolap::qos {

/// Degradation (1.0 healthy … 0.0 dead) below which batch-priority
/// submissions get a zero-length queue (shed unless a slot is free). The
/// service's degradation ladder starts its tiers at the same thresholds.
inline constexpr double kShedBatchBelow = 0.75;
/// Below this, normal priority is shed too; only high may still queue.
inline constexpr double kShedNormalBelow = 0.40;
/// Priority aging: once this many execution slots have been granted to
/// strictly-higher-priority submissions while a class had a waiter
/// queued, that class holds a *reservation* — the next free slot goes to
/// its head waiter even though higher-priority waiters remain, and the
/// class's bypass count resets. Bounds the wait of any queued submission
/// to kAgingGrants slot grants per priority level above it.
inline constexpr int kAgingGrants = 16;

/// Static admission configuration: the slot pool and the class queue
/// bounds. Defaults suit the tests and the overload bench; a deployment
/// sizes them to its pool.
struct AdmissionLimits {
  /// Queries holding an execution slot at once.
  int max_concurrent = 2;
  /// Waiters allowed per priority class; a submission beyond its class
  /// bound is shed immediately.
  int high_queue = 8;
  int normal_queue = 4;
  int batch_queue = 2;
};

/// Live backpressure inputs, refreshed by the engine before each admit.
struct LoadSignal {
  /// WorkStealingPool::inflight_runs(): submitted-but-unfinished runs.
  /// Depth beyond max_concurrent eats queue room one-for-one.
  int executor_depth = 0;
  /// Platform health estimate (see DegradationEstimate), 1.0 = healthy.
  double degradation = 1.0;
};

/// Evidence of what the gate did — the overload bench's scorecard.
struct AdmissionCounters {
  uint64_t admitted = 0;         ///< tickets granted
  uint64_t shed = 0;             ///< refused (class queue full, or
                                 ///< TryAdmit could not run at once)
  uint64_t expired_waiting = 0;  ///< deadline fired while queued (or at
                                 ///< the gate, before ever running)
  uint64_t completed = 0;        ///< tickets released
  /// Grants that passed over a queued higher-priority waiter — only an
  /// aging reservation does that. A starved class granted while nobody
  /// higher waits is not counted.
  uint64_t aged_grants = 0;
  uint64_t peak_running = 0;
  uint64_t peak_waiting = 0;
};

class AdmissionController;

/// RAII execution slot: releasing (or destroying) it readmits a waiter.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_) {
    other.controller_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      controller_ = other.controller_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { Release(); }

  bool valid() const { return controller_ != nullptr; }
  void Release();

 private:
  friend class AdmissionController;
  explicit AdmissionTicket(AdmissionController* controller)
      : controller_(controller) {}
  AdmissionController* controller_ = nullptr;
};

/// One grant of the event entry: the waiter's id and its slot.
struct AdmissionGrant {
  uint64_t id = 0;
  AdmissionTicket ticket;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionLimits limits = AdmissionLimits());

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Publishes fresh backpressure inputs (engine calls this before each
  /// admission attempt).
  void SetLoadSignal(const LoadSignal& signal);
  LoadSignal load_signal() const;

  /// Non-blocking gate: a ticket when a slot is free and nobody is queued
  /// ahead of the caller, kResourceExhausted otherwise. Never queues.
  Result<AdmissionTicket> TryAdmit(QueryPriority priority);

  /// Blocking gate: the caller queues at the tail of its class FIFO (up
  /// to the class's backpressure-shrunk bound) and runs when it is the
  /// waiter GrantNext would pick — a free slot with nobody ahead of it
  /// admits at once. Over-bound submissions shed fast with
  /// kResourceExhausted; a waiter whose `token` expires leaves with that
  /// terminal status (kDeadlineExceeded) instead of ever running. An
  /// already-expired token never admits and never sheds: the deadline, not
  /// the queue, is what failed, so the call reports the token's terminal
  /// status even when the class queue is also full. Queued low-priority
  /// waiters age (kAgingGrants), so sustained high-priority traffic cannot
  /// starve them indefinitely.
  Result<AdmissionTicket> Admit(QueryPriority priority,
                                CancelToken* token = nullptr);

  // Event entry. Waiters are caller-supplied ids below kBlockingIds (the
  // ids at and above it name blocking Admit callers); the caller owns
  // their deadlines and calls GrantNext after every event that can free a
  // slot, lift the pause or queue a waiter.

  static constexpr uint64_t kBlockingIds = uint64_t{1} << 63;

  /// Queues `id` at the tail of its class FIFO. A submission that cannot
  /// run at once — the gate is paused, no slot is free, or someone of its
  /// own or a higher class (or an aged class) is queued ahead of it — is
  /// shed with kResourceExhausted when its class is at its bound. As in
  /// Admit, an `expired` submission never queues and never sheds: it
  /// returns kDeadlineExceeded and counts as expired_waiting.
  Status Enqueue(uint64_t id, QueryPriority priority, bool expired = false);

  /// Grants a slot to the waiter the policy picks next: the head of the
  /// aged class holding the reservation, else the head of the highest
  /// non-empty class. Nothing while paused or without a free slot.
  std::optional<AdmissionGrant> GrantNext();

  /// Removes every waiter `expired` reports past its deadline and returns
  /// their ids, in class then FIFO order; each counts as expired_waiting.
  /// A class whose last waiter leaves this way loses its aging credit.
  /// `expired` runs under the controller's lock and must not call back
  /// into the controller.
  std::vector<uint64_t> WithdrawExpired(
      const std::function<bool(uint64_t)>& expired);

  /// The queue bound `priority` currently gets, after the load signal's
  /// shrinkage — 0 means "shed unless a slot is free".
  // lint:allow(test-only-api): read-back oracle for SetLoadSignal's bound
  int EffectiveQueueLimit(QueryPriority priority) const;

  /// Recovery gate: while paused no new query is admitted. TryAdmit fails
  /// fast with kUnavailable ("recovery in progress"); Admit and Enqueue
  /// queue (the class bound still applies) and are granted after
  /// ResumeAfterRecovery — or leave with their terminal status if the
  /// deadline fires first. Queries already running keep their tickets;
  /// crash-consistent recovery only needs to stop NEW snapshots from being
  /// pinned while recovery runs. QueryService also holds the pause
  /// through its pause-and-drain tier. Idempotent; pause depth is not
  /// counted.
  void PauseForRecovery();
  void ResumeAfterRecovery();
  bool recovery_paused() const;

  AdmissionCounters counters() const;
  int running() const;
  int waiting() const;
  const AdmissionLimits& limits() const { return limits_; }

 private:
  friend class AdmissionTicket;
  void Release();

  int EffectiveQueueLimitLocked(QueryPriority priority) const;
  /// The gate is not paused and a slot is free.
  bool SlotOpenLocked() const;
  /// A new submission at `priority` would be granted at once: a slot is
  /// open, no aged class holds the reservation, and no waiter of its own
  /// or a higher class is queued.
  bool CanRunLocked(int priority) const;
  /// The highest-priority class whose queued waiter has aged past
  /// kAgingGrants (holds the next-slot reservation); -1 when none.
  int StarvedClassLocked() const;
  /// The class whose head waiter the open slot goes to: the starved class,
  /// else the highest non-empty one; -1 when no slot is open or nobody
  /// waits.
  int NextClassLocked() const;
  /// Bound check and push shared by Admit and Enqueue.
  Status EnqueueLocked(uint64_t id, QueryPriority priority);
  /// Books one slot for a `priority` waiter already off its queue (or a
  /// TryAdmit caller): counts an aged grant, bumps the bypass count of
  /// every lower class with waiters and resets this class's.
  AdmissionTicket GrantLocked(int priority);

  const AdmissionLimits limits_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  LoadSignal signal_;
  bool recovery_paused_ = false;
  int running_ = 0;
  std::deque<uint64_t> queue_[kNumPriorities];
  /// Slots granted to strictly-higher classes while class p had waiters
  /// queued; reset when class p is granted a slot or its queue empties.
  int bypass_grants_[kNumPriorities] = {0, 0, 0};
  uint64_t next_blocking_id_ = kBlockingIds;
  AdmissionCounters counters_;
};

/// The platform-health half of the backpressure signal: the worst active
/// DIMM throttle service factor combined with the UPI capacity factor at
/// the injector's current platform time, clamped to [0, 1]. 1.0 = healthy.
double DegradationEstimate(const FaultInjector& injector);

}  // namespace pmemolap::qos
