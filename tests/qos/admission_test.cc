// AdmissionController: slot accounting, bounded per-priority queues,
// fast shedding, priority ordering, deadline-aware waiting, and the
// backpressure shrinkage of queue bounds.
#include "qos/admission.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace pmemolap::qos {
namespace {

AdmissionLimits SmallLimits() {
  AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.high_queue = 2;
  limits.normal_queue = 1;
  limits.batch_queue = 1;
  return limits;
}

/// Spins until `predicate` holds (the controller wakes waiters on 1 ms
/// slices, so a generous bound keeps this deterministic in practice).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

TEST(AdmissionTest, TryAdmitGrantsSlotsThenShedsFast) {
  AdmissionLimits limits;
  limits.max_concurrent = 2;
  AdmissionController gate(limits);
  Result<AdmissionTicket> first = gate.TryAdmit(QueryPriority::kNormal);
  Result<AdmissionTicket> second = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(gate.running(), 2);
  Result<AdmissionTicket> third = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  AdmissionCounters counters = gate.counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.peak_running, 2u);
  // Releasing a slot readmits.
  first->Release();
  EXPECT_TRUE(gate.TryAdmit(QueryPriority::kNormal).ok());
}

TEST(AdmissionTest, TicketReleasesOnDestruction) {
  AdmissionController gate(SmallLimits());
  {
    Result<AdmissionTicket> ticket = gate.TryAdmit(QueryPriority::kHigh);
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(ticket->valid());
    EXPECT_EQ(gate.running(), 1);
  }
  EXPECT_EQ(gate.running(), 0);
  EXPECT_EQ(gate.counters().completed, 1u);
}

TEST(AdmissionTest, AdmitQueuesUntilAReleaseAndShedsBeyondBound) {
  AdmissionController gate(SmallLimits());  // 1 slot, normal queue 1
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(holder.ok());

  Status waiter_status = Status::Internal("never set");
  std::thread waiter([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kNormal);
    waiter_status = ticket.status();
    // Hold briefly so the test can observe running() == 1 again.
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 1; }));

  // The queue bound for normal is 1 and it is taken: shed immediately.
  Result<AdmissionTicket> overflow = gate.Admit(QueryPriority::kNormal);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  holder->Release();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status.ToString();
  EXPECT_EQ(gate.counters().admitted, 2u);
  EXPECT_EQ(gate.counters().shed, 1u);
}

TEST(AdmissionTest, HigherPriorityWaiterAdmitsFirst) {
  AdmissionController gate(SmallLimits());
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(holder.ok());

  std::mutex order_mutex;
  std::vector<QueryPriority> order;
  // The batch waiter queues first, the high waiter second — priority
  // ordering must still admit high first once the slot frees.
  std::thread batch([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kBatch);
    ASSERT_TRUE(ticket.ok());
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(QueryPriority::kBatch);
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 1; }));
  std::thread high([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kHigh);
    ASSERT_TRUE(ticket.ok());
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(QueryPriority::kHigh);
    }
    // Keep the slot long enough that the batch waiter provably ran
    // second, then free it.
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 2; }));

  holder->Release();
  high.join();
  batch.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], QueryPriority::kHigh);
  EXPECT_EQ(order[1], QueryPriority::kBatch);
}

TEST(AdmissionTest, ExpiredTokenLeavesTheQueueWithItsStatus) {
  AdmissionController gate(SmallLimits());
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(holder.ok());

  CancelToken token;
  token.ArmWall(0.0);  // already expired
  Result<AdmissionTicket> expired = gate.Admit(QueryPriority::kNormal, &token);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.counters().expired_waiting, 1u);
  EXPECT_EQ(gate.waiting(), 0);
}

TEST(AdmissionTest, ExpiredTokenBeatsAFullQueue) {
  AdmissionController gate(SmallLimits());  // 1 slot, normal queue 1
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(holder.ok());

  // Fill the normal queue with one live waiter.
  Status waiter_status = Status::Internal("never set");
  std::thread waiter([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kNormal);
    waiter_status = ticket.status();
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 1; }));

  // A live submission over the bound sheds with kResourceExhausted...
  Result<AdmissionTicket> shed = gate.Admit(QueryPriority::kNormal);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // ...but an already-expired token reports the *deadline* even though
  // the queue is just as full: the deadline, not the queue, failed first.
  CancelToken token;
  token.ArmWall(0.0);
  Result<AdmissionTicket> expired = gate.Admit(QueryPriority::kNormal, &token);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.counters().expired_waiting, 1u);
  EXPECT_EQ(gate.counters().shed, 1u);

  holder->Release();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status.ToString();
}

TEST(AdmissionTest, AgingBoundsBatchWaiterDelayUnderHighTraffic) {
  AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.high_queue = 8;
  limits.batch_queue = 1;
  AdmissionController gate(limits);

  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());

  std::mutex order_mutex;
  std::vector<QueryPriority> order;
  std::thread batch([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kBatch);
    ASSERT_TRUE(ticket.ok());
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(QueryPriority::kBatch);
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 1; }));

  // Sustained high-priority traffic: each cycle queues a high waiter and
  // hands it the slot. While a high waiter is queued the batch waiter can
  // never slip in, so each grant deterministically bumps its bypass
  // count. kAgingGrants bounds the starvation at that many bypasses.
  auto cycle_high = [&](bool expect_high_wins) {
    Result<AdmissionTicket> next = Status::Internal("unset");
    std::thread high([&] {
      next = gate.Admit(QueryPriority::kHigh);
      ASSERT_TRUE(next.ok());
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(QueryPriority::kHigh);
    });
    ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 2; }));
    holder->Release();
    if (expect_high_wins) {
      high.join();
      holder = std::move(next);
    } else {
      // The batch reservation outranks the queued high waiter: batch
      // runs first, the high waiter only admits once batch releases.
      ASSERT_TRUE(WaitFor([&] { return gate.counters().aged_grants == 1; }));
      high.join();
      holder = std::move(next);
    }
  };
  for (int i = 0; i < kAgingGrants; ++i) {
    cycle_high(/*expect_high_wins=*/true);  // bypass(batch) -> i + 1
  }
  cycle_high(/*expect_high_wins=*/false);  // reservation admits batch

  batch.join();
  holder->Release();

  const size_t bypasses = static_cast<size_t>(kAgingGrants);
  ASSERT_EQ(order.size(), bypasses + 2);
  for (size_t i = 0; i < bypasses; ++i) {
    EXPECT_EQ(order[i], QueryPriority::kHigh) << "grant " << i;
  }
  // The aged batch waiter beat the last high waiter to the slot.
  EXPECT_EQ(order[bypasses], QueryPriority::kBatch);
  EXPECT_EQ(order[bypasses + 1], QueryPriority::kHigh);
  AdmissionCounters counters = gate.counters();
  EXPECT_EQ(counters.aged_grants, 1u);
  // The initial holder, every high waiter and the batch waiter.
  EXPECT_EQ(counters.admitted, bypasses + 3);
}

TEST(AdmissionTest, DegradationZeroesBatchThenNormalQueues) {
  AdmissionController gate;  // defaults: shed batch < 0.75, normal < 0.40
  EXPECT_GT(gate.EffectiveQueueLimit(QueryPriority::kBatch), 0);
  gate.SetLoadSignal({.executor_depth = 0, .degradation = 0.5});
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kBatch), 0);
  EXPECT_GT(gate.EffectiveQueueLimit(QueryPriority::kNormal), 0);
  EXPECT_GT(gate.EffectiveQueueLimit(QueryPriority::kHigh), 0);
  gate.SetLoadSignal({.executor_depth = 0, .degradation = 0.3});
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kNormal), 0);
  EXPECT_GT(gate.EffectiveQueueLimit(QueryPriority::kHigh), 0);
}

TEST(AdmissionTest, ZeroQueueShedsWaitersUnlessASlotIsFree) {
  AdmissionController gate(SmallLimits());
  gate.SetLoadSignal({.executor_depth = 0, .degradation = 0.1});
  // A free slot still admits even a batch query...
  Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kBatch);
  ASSERT_TRUE(ticket.ok());
  // ...but with the slot taken a zero-length queue sheds instantly.
  Result<AdmissionTicket> shed = gate.Admit(QueryPriority::kBatch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, ExecutorDepthEatsQueueRoom) {
  AdmissionLimits limits;
  limits.max_concurrent = 2;
  limits.high_queue = 3;
  AdmissionController gate(limits);
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kHigh), 3);
  // Depth at the concurrency target costs nothing...
  gate.SetLoadSignal({.executor_depth = 2, .degradation = 1.0});
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kHigh), 3);
  // ...every run beyond it eats one queue slot, floored at zero.
  gate.SetLoadSignal({.executor_depth = 4, .degradation = 1.0});
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kHigh), 1);
  gate.SetLoadSignal({.executor_depth = 9, .degradation = 1.0});
  EXPECT_EQ(gate.EffectiveQueueLimit(QueryPriority::kHigh), 0);
}

TEST(AdmissionTest, RecoveryPauseShedsTryAdmitAndParksAdmit) {
  AdmissionController gate(SmallLimits());
  gate.PauseForRecovery();
  EXPECT_TRUE(gate.recovery_paused());

  // TryAdmit fails fast with kUnavailable — distinct from the
  // kResourceExhausted a full slot table produces — and counts a shed.
  Result<AdmissionTicket> shed = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(gate.counters().shed, 1u);
  EXPECT_EQ(gate.running(), 0);

  // Admit queues within its class bound and wakes on resume.
  Status waiter_status = Status::Internal("never set");
  std::thread waiter([&] {
    Result<AdmissionTicket> ticket = gate.Admit(QueryPriority::kHigh);
    waiter_status = ticket.status();
  });
  ASSERT_TRUE(WaitFor([&] { return gate.waiting() == 1; }));
  // The pause, not slot pressure, is what holds the waiter: the slot
  // table is empty the whole time.
  EXPECT_EQ(gate.running(), 0);

  gate.ResumeAfterRecovery();
  EXPECT_FALSE(gate.recovery_paused());
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status.ToString();
  EXPECT_EQ(gate.counters().admitted, 1u);
}

TEST(AdmissionTest, RecoveryPauseIsIdempotentAndLeavesTicketsAlone) {
  AdmissionController gate(SmallLimits());
  Result<AdmissionTicket> running = gate.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(running.ok());

  gate.PauseForRecovery();
  gate.PauseForRecovery();  // depth is not counted
  EXPECT_TRUE(gate.recovery_paused());
  // The query already running keeps its ticket and releases normally.
  EXPECT_EQ(gate.running(), 1);
  running->Release();
  EXPECT_EQ(gate.running(), 0);

  gate.ResumeAfterRecovery();
  EXPECT_FALSE(gate.recovery_paused());
  EXPECT_TRUE(gate.TryAdmit(QueryPriority::kNormal).ok());
}

TEST(AdmissionTest, DeadlineFiresWhileRecoveryPauseHolds) {
  AdmissionController gate(SmallLimits());
  gate.PauseForRecovery();
  // A token whose wall budget is already spent leaves the queue with its
  // terminal status even though the pause never lifts.
  CancelToken token;
  token.ArmWall(0.0);
  Result<AdmissionTicket> expired = gate.Admit(QueryPriority::kHigh, &token);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.waiting(), 0);
  gate.ResumeAfterRecovery();
}

// --- Event entry: caller-supplied ids, single-threaded -------------------

/// Grants the next waiter and returns its id (-1 when nothing is granted);
/// the ticket is released at once unless `hold` takes it.
int64_t GrantNextId(AdmissionController* gate,
                    AdmissionTicket* hold = nullptr) {
  std::optional<AdmissionGrant> grant = gate->GrantNext();
  if (!grant.has_value()) return -1;
  if (hold != nullptr) *hold = std::move(grant->ticket);
  return static_cast<int64_t>(grant->id);
}

AdmissionLimits AgingLimits() {
  AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.high_queue = 4;
  limits.batch_queue = 2;
  return limits;
}

/// A high waiter queued after the batch waiter has aged.
constexpr uint64_t kLateHigh = kAgingGrants + 1;

/// Ages batch waiter 100 by kAgingGrants high grants (ids 1 to
/// kAgingGrants) while `slot` keeps the gate's only slot between grants.
void AgeBatchWaiter(AdmissionController* gate, AdmissionTicket* slot) {
  ASSERT_TRUE(gate->Enqueue(100, QueryPriority::kBatch).ok());
  for (uint64_t id = 1; id < kLateHigh; ++id) {
    ASSERT_TRUE(gate->Enqueue(id, QueryPriority::kHigh).ok());
    slot->Release();
    EXPECT_EQ(GrantNextId(gate, slot), static_cast<int64_t>(id));
  }
}

TEST(AdmissionTest, EventEntryGrantsFifoWithinAClass) {
  AdmissionLimits limits = SmallLimits();
  limits.normal_queue = 3;
  AdmissionController gate(limits);
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());
  for (uint64_t id : {7, 3, 5}) {
    ASSERT_TRUE(gate.Enqueue(id, QueryPriority::kNormal).ok());
  }
  EXPECT_EQ(gate.waiting(), 3);
  EXPECT_EQ(GrantNextId(&gate), -1);  // the slot is held
  holder->Release();
  AdmissionTicket slot;
  for (int64_t id : {7, 3, 5}) {
    EXPECT_EQ(GrantNextId(&gate, &slot), id);
    EXPECT_EQ(GrantNextId(&gate), -1);
    slot.Release();
  }
  EXPECT_EQ(gate.counters().admitted, 4u);
  EXPECT_EQ(gate.counters().peak_waiting, 3u);
}

TEST(AdmissionTest, EventEntryAgedGrantPassingAHigherWaiterIsCounted) {
  AdmissionController gate(AgingLimits());
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());
  AdmissionTicket slot = std::move(holder.value());
  AgeBatchWaiter(&gate, &slot);
  // The reservation passes over the late high waiter: that grant is aged.
  ASSERT_TRUE(gate.Enqueue(kLateHigh, QueryPriority::kHigh).ok());
  slot.Release();
  EXPECT_EQ(GrantNextId(&gate, &slot), 100);
  EXPECT_EQ(gate.counters().aged_grants, 1u);
  slot.Release();
  EXPECT_EQ(GrantNextId(&gate), static_cast<int64_t>(kLateHigh));
  EXPECT_EQ(gate.counters().aged_grants, 1u);
}

TEST(AdmissionTest, EventEntryStarvedGrantWithNobodyHigherIsNotCounted) {
  AdmissionController gate(AgingLimits());
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());
  AdmissionTicket slot = std::move(holder.value());
  AgeBatchWaiter(&gate, &slot);
  // Batch is starved, but nobody higher waits: an ordinary grant.
  slot.Release();
  EXPECT_EQ(GrantNextId(&gate), 100);
  EXPECT_EQ(gate.counters().aged_grants, 0u);
}

TEST(AdmissionTest, EventEntryExpiryOfTheLastWaiterResetsAgingCredit) {
  AdmissionController gate(AgingLimits());
  Result<AdmissionTicket> holder = gate.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(holder.ok());
  AdmissionTicket slot = std::move(holder.value());
  AgeBatchWaiter(&gate, &slot);
  std::vector<uint64_t> gone =
      gate.WithdrawExpired([](uint64_t id) { return id == 100; });
  EXPECT_EQ(gone, std::vector<uint64_t>{100});
  EXPECT_EQ(gate.counters().expired_waiting, 1u);
  // A new batch waiter ages on its own: the late high waiter goes first.
  ASSERT_TRUE(gate.Enqueue(101, QueryPriority::kBatch).ok());
  ASSERT_TRUE(gate.Enqueue(kLateHigh, QueryPriority::kHigh).ok());
  slot.Release();
  EXPECT_EQ(GrantNextId(&gate, &slot), static_cast<int64_t>(kLateHigh));
  EXPECT_EQ(gate.counters().aged_grants, 0u);
}

TEST(AdmissionTest, EventEntryPausedGateShedsAtTheClassBound) {
  AdmissionController gate(SmallLimits());  // 1 slot, normal queue 1
  gate.PauseForRecovery();
  // The slot is free, but a paused gate cannot run anyone: the first
  // submission queues, the second meets the class bound.
  ASSERT_TRUE(gate.Enqueue(1, QueryPriority::kNormal).ok());
  Status shed = gate.Enqueue(2, QueryPriority::kNormal);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.counters().shed, 1u);
  // An expired submission reports its deadline, not the full queue.
  Status expired = gate.Enqueue(3, QueryPriority::kNormal, /*expired=*/true);
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.counters().shed, 1u);
  EXPECT_EQ(gate.counters().expired_waiting, 1u);
  EXPECT_EQ(GrantNextId(&gate), -1);
  gate.ResumeAfterRecovery();
  EXPECT_EQ(GrantNextId(&gate), 1);
}

TEST(AdmissionTest, DegradationEstimateTracksThrottlesAndUpi) {
  // Healthy platform: estimate is exactly 1.
  FaultInjector healthy(FaultSpec::Healthy());
  EXPECT_DOUBLE_EQ(DegradationEstimate(healthy), 1.0);

  // A DIMM throttle window drags the estimate down only while active.
  FaultSpec spec;
  ThrottleWindow window;
  window.socket = 0;
  window.start_seconds = 10.0;
  window.end_seconds = 15.0;
  window.service_factor = 0.25;
  spec.throttle_windows.push_back(window);
  FaultInjector injector(spec);
  EXPECT_DOUBLE_EQ(DegradationEstimate(injector), 1.0);
  injector.AdvanceTo(12.0);
  EXPECT_LE(DegradationEstimate(injector), 0.25);
  injector.AdvanceTo(20.0);
  EXPECT_DOUBLE_EQ(DegradationEstimate(injector), 1.0);

  // UPI degradation caps the estimate at all times.
  FaultSpec upi_spec;
  upi_spec.upi_capacity_factor = 0.6;
  FaultInjector upi(upi_spec);
  EXPECT_DOUBLE_EQ(DegradationEstimate(upi), 0.6);
}

TEST(AdmissionTest, PureDegradationEstimateIsTheSharedSignal) {
  // The estimate is a pure function of the injector's state: the min of
  // the worst active DIMM factor and the UPI factor, clamped to [0, 1].
  // Admission in the engine and the service's degradation ladder both
  // read this one number.
  struct Case {
    double dimm;  // socket 1's active window factor; 1.0 = no window
    double upi;
    double expected;
  };
  for (const Case& c : {Case{1.0, 1.0, 1.0}, Case{0.25, 1.0, 0.25},
                        Case{1.0, 0.6, 0.6}, Case{0.25, 0.6, 0.25},
                        Case{-0.5, 1.0, 0.0}, Case{1.0, 3.0, 1.0}}) {
    FaultSpec spec;
    spec.upi_capacity_factor = c.upi;
    if (c.dimm < 1.0) {
      ThrottleWindow window;
      window.socket = 1;
      window.start_seconds = 0.0;
      window.end_seconds = 100.0;
      window.service_factor = c.dimm;
      spec.throttle_windows.push_back(window);
    }
    FaultInjector injector(spec);
    injector.AdvanceTo(50.0);
    EXPECT_DOUBLE_EQ(DegradationEstimate(injector), c.expected)
        << "dimm " << c.dimm << " upi " << c.upi;
  }
}

}  // namespace
}  // namespace pmemolap::qos
