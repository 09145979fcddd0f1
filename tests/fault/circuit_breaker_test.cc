// Fault-domain circuit breakers: the state machine itself, the per-socket
// board, and the integration with GuardedTable / GuardedDimension that
// turns retry-every-touch into quarantine-and-bypass. Everything is
// clocked on the injector's modeled platform time, so every trajectory
// here is deterministic.
#include "fault/circuit_breaker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/guarded_table.h"

namespace pmemolap {
namespace {

TEST(CircuitBreakerTest, TripsAtThresholdWithinWindow) {
  CircuitBreaker breaker;  // threshold 3, window 1 s
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.Decide(0.0), BreakerDecision::kNormal);
  breaker.RecordEscalation(0.0);
  breaker.RecordEscalation(0.1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordEscalation(0.2);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().trips, 1u);
  EXPECT_EQ(breaker.counters().escalations, 3u);
  // Open + cooldown not elapsed: every access bypasses.
  EXPECT_EQ(breaker.Decide(0.3), BreakerDecision::kBypass);
  EXPECT_EQ(breaker.Decide(1.0), BreakerDecision::kBypass);
  EXPECT_EQ(breaker.counters().bypasses, 2u);
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldEscalations) {
  CircuitBreaker breaker;  // threshold 3, window 1 s
  breaker.RecordEscalation(0.0);
  breaker.RecordEscalation(0.5);
  // 2.0 is more than window_seconds past both earlier escalations: they
  // no longer count, so this is escalation #1 of a fresh window.
  breaker.RecordEscalation(2.0);
  breaker.RecordEscalation(2.1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordEscalation(2.2);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().trips, 1u);
}

TEST(CircuitBreakerTest, CooldownHalfOpensAndHealthyProbeRestores) {
  BreakerOptions options;
  options.trip_threshold = 1;
  options.cooldown_seconds = 5.0;
  CircuitBreaker breaker(options);
  breaker.RecordEscalation(10.0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.Decide(14.9), BreakerDecision::kBypass);
  // Cooldown elapsed: the breaker half-opens and lets a probe through.
  EXPECT_EQ(breaker.Decide(15.0), BreakerDecision::kProbe);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // Further accesses while half-open stay probes.
  EXPECT_EQ(breaker.Decide(15.1), BreakerDecision::kProbe);
  breaker.RecordProbe(/*healthy=*/true, 15.1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.counters().restores, 1u);
  EXPECT_EQ(breaker.Decide(15.2), BreakerDecision::kNormal);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  BreakerOptions options;
  options.trip_threshold = 1;
  options.cooldown_seconds = 5.0;
  CircuitBreaker breaker(options);
  breaker.RecordEscalation(0.0);
  ASSERT_EQ(breaker.Decide(5.0), BreakerDecision::kProbe);
  breaker.RecordProbe(/*healthy=*/false, 5.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().reopens, 1u);
  // The cooldown restarts from the failed probe, not the original trip.
  EXPECT_EQ(breaker.Decide(9.9), BreakerDecision::kBypass);
  EXPECT_EQ(breaker.Decide(10.0), BreakerDecision::kProbe);
}

TEST(BreakerBoardTest, PerSocketDomainsWithWrappingAndAggregation) {
  FaultInjector injector(FaultSpec::Healthy());
  BreakerBoard board(&injector, /*sockets=*/2);
  for (int i = 0; i < 3; ++i) board.RecordEscalation(0);
  EXPECT_TRUE(board.Quarantined(0));
  EXPECT_FALSE(board.Quarantined(1));
  EXPECT_EQ(board.state(0), BreakerState::kOpen);
  EXPECT_EQ(board.state(1), BreakerState::kClosed);
  std::vector<bool> healthy = board.HealthySockets();
  ASSERT_EQ(healthy.size(), 2u);
  EXPECT_FALSE(healthy[0]);
  EXPECT_TRUE(healthy[1]);
  // Out-of-range sockets wrap onto their domain, mirroring replica
  // indexing: socket 2 is domain 0 (quarantined), socket 3 is domain 1.
  EXPECT_EQ(board.Decide(2), BreakerDecision::kBypass);
  EXPECT_EQ(board.Decide(3), BreakerDecision::kNormal);
  EXPECT_EQ(board.counters().trips, 1u);
  EXPECT_EQ(board.counters().escalations, 3u);
  EXPECT_EQ(board.domain_counters(0).trips, 1u);
  EXPECT_EQ(board.domain_counters(1).trips, 0u);
}

TEST(BreakerBoardTest, ClockedOnInjectorModeledTime) {
  FaultInjector injector(FaultSpec::Healthy());
  BreakerOptions options;
  options.trip_threshold = 1;
  options.cooldown_seconds = 2.0;
  BreakerBoard board(&injector, /*sockets=*/2, options);
  board.RecordEscalation(1);
  ASSERT_TRUE(board.Quarantined(1));
  EXPECT_EQ(board.Decide(1), BreakerDecision::kBypass);
  injector.AdvanceTo(2.0);
  EXPECT_EQ(board.Decide(1), BreakerDecision::kProbe);
  board.RecordProbe(1, /*healthy=*/true);
  EXPECT_FALSE(board.Quarantined(1));
  EXPECT_EQ(board.counters().restores, 1u);
}

class BreakerIntegrationTest : public ::testing::Test {
 protected:
  static std::vector<std::byte> MakeSource(size_t bytes) {
    std::vector<std::byte> source(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      source[i] = static_cast<std::byte>((i * 131 + 3) & 0xFF);
    }
    return source;
  }

  SystemTopology topo_ = SystemTopology::PaperServer();
};

// A dying replica: the local copy stays permanently poisoned, so without
// a breaker every touch pays a failover. With one, the trip_threshold'th
// failover quarantines the domain and later touches bypass straight to
// the remote replica — the per-access recovery cost disappears.
TEST_F(BreakerIntegrationTest, DimensionBypassStopsPayingFailovers) {
  FaultInjector injector(FaultSpec::Healthy());
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<uint64_t> payloads(1024);
  for (size_t i = 0; i < payloads.size(); ++i) payloads[i] = i * 99 + 1;
  Result<std::unique_ptr<GuardedDimension>> dim =
      GuardedDimension::Create(&space, &injector, payloads, Media::kPmem);
  ASSERT_TRUE(dim.ok()) << dim.status().ToString();

  BreakerOptions options;
  options.trip_threshold = 2;
  BreakerBoard board(&injector, topo_.sockets(), options);
  (*dim)->AttachBreakers(&board);

  // Permanent poison on the local copy's line for position 5.
  (*dim)->table().copy(0).PoisonLine(5 * sizeof(uint64_t) /
                                     kOptaneLineBytes);
  for (int read = 0; read < 5; ++read) {
    Result<uint64_t> value = (*dim)->Payload(/*socket=*/0, 5);
    ASSERT_TRUE(value.ok()) << read;
    EXPECT_EQ(value.value(), payloads[5]) << read;
  }
  // Reads 1 and 2 fail over (and escalate); the second trips the breaker,
  // so reads 3-5 bypass without charging a failover.
  EXPECT_EQ(injector.counters().failovers, 2u);
  EXPECT_TRUE(board.Quarantined(0));
  EXPECT_EQ(board.counters().trips, 1u);
  EXPECT_EQ(board.counters().bypasses, 3u);

  // After the cooldown a probe goes through the normal path; the local
  // copy is still poisoned, so the probe fails over and reopens.
  injector.AdvanceTo(BreakerOptions().cooldown_seconds + 1.0);
  Result<uint64_t> value = (*dim)->Payload(/*socket=*/0, 5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), payloads[5]);
  EXPECT_EQ(injector.counters().failovers, 3u);
  EXPECT_EQ(board.counters().reopens, 1u);
  EXPECT_TRUE(board.Quarantined(0));
}

// Permanent media corruption on the fact table: the first read escalates
// to the scrubber and trips the (threshold-1) breaker; while the domain
// is quarantined reads bypass the retry loop; once the scrub has healed
// the stripes, the post-cooldown probe succeeds and restores the domain.
TEST_F(BreakerIntegrationTest, TableQuarantineBypassAndProbeRestore) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 32.0;
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<std::byte> source = MakeSource(2 * kMiB);
  Result<std::unique_ptr<GuardedTable>> table = GuardedTable::Create(
      &space, &injector, source.data(), source.size(),
      GuardedTable::Options());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GT(injector.counters().lines_poisoned, 0u);

  BreakerOptions options;
  options.trip_threshold = 1;
  BreakerBoard board(&injector, topo_.sockets(), options);
  (*table)->AttachBreakers(&board);

  std::vector<std::byte> readback(source.size());
  ASSERT_TRUE((*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0);
  // Each poisoned stripe escalated exactly once and tripped its domain.
  const uint64_t tripped = board.counters().trips;
  ASSERT_GT(tripped, 0u);
  EXPECT_EQ(board.counters().escalations, tripped);

  // Second read at the same modeled time: quarantined domains bypass the
  // retry loop. The escalation scrub already healed the stripes, so no
  // new retries, escalations or poisoned reads — and still bit-identical.
  const uint64_t retries_before = injector.counters().retries;
  const uint64_t poisoned_before = injector.counters().poisoned_reads;
  ASSERT_TRUE((*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0);
  EXPECT_EQ(board.counters().bypasses, tripped);
  EXPECT_EQ(board.counters().escalations, tripped);
  EXPECT_EQ(injector.counters().retries, retries_before);
  EXPECT_EQ(injector.counters().poisoned_reads, poisoned_before);

  // Past the cooldown every quarantined domain half-opens; the healed
  // stripes read clean on the probe, restoring each domain.
  injector.AdvanceTo(options.cooldown_seconds + 1.0);
  ASSERT_TRUE((*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0);
  EXPECT_EQ(board.counters().restores, tripped);
  for (int s = 0; s < board.num_domains(); ++s) {
    EXPECT_EQ(board.state(s), BreakerState::kClosed) << s;
  }
}

}  // namespace
}  // namespace pmemolap
