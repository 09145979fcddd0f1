#include "core/morsel.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(MorselTest, AppendSlicesRange) {
  MorselPlan plan;
  AppendMorsels(0, 250, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  ASSERT_EQ(plan.queues.size(), 1u);
  ASSERT_EQ(plan.queues[0].size(), 3u);
  EXPECT_EQ(plan.queues[0][0].begin, 0u);
  EXPECT_EQ(plan.queues[0][0].end, 100u);
  EXPECT_EQ(plan.queues[0][1].begin, 100u);
  EXPECT_EQ(plan.queues[0][1].end, 200u);
  EXPECT_EQ(plan.queues[0][2].begin, 200u);
  EXPECT_EQ(plan.queues[0][2].end, 250u);
  EXPECT_EQ(plan.total_tuples(), 250u);
}

TEST(MorselTest, AppendGrowsQueuesAndTagsSocket) {
  MorselPlan plan;
  AppendMorsels(10, 20, /*socket=*/2, /*morsel_tuples=*/100, &plan);
  ASSERT_EQ(plan.queues.size(), 3u);
  EXPECT_TRUE(plan.queues[0].empty());
  EXPECT_TRUE(plan.queues[1].empty());
  ASSERT_EQ(plan.queues[2].size(), 1u);
  EXPECT_EQ(plan.queues[2][0].socket, 2);
  EXPECT_EQ(plan.queues[2][0].size(), 10u);
}

TEST(MorselTest, ZeroMorselTuplesFallsBackToDefault) {
  MorselPlan plan;
  AppendMorsels(0, kDefaultMorselTuples + 1, /*socket=*/0,
                /*morsel_tuples=*/0, &plan);
  EXPECT_EQ(plan.total_morsels(), 2u);
  EXPECT_EQ(plan.total_tuples(), kDefaultMorselTuples + 1);
}

TEST(MorselTest, EmptyRangeYieldsNoMorsels) {
  MorselPlan plan;
  AppendMorsels(0, 0, /*socket=*/0, 64, &plan);
  EXPECT_EQ(plan.total_morsels(), 0u);
}

TEST(MorselTest, ReassignQuarantinedQueuesMovesButKeepsSocket) {
  MorselPlan plan;
  AppendMorsels(0, 400, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AppendMorsels(400, 500, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  const uint64_t moved =
      ReassignQuarantinedQueues(&plan, {false, true});
  EXPECT_EQ(moved, 4u);
  EXPECT_TRUE(plan.queues[0].empty());
  ASSERT_EQ(plan.queues[1].size(), 5u);
  // Morsel::socket still names where the data lives — only the queue
  // placement changed.
  uint64_t from_socket0 = 0;
  for (const Morsel& morsel : plan.queues[1]) {
    if (morsel.socket == 0) ++from_socket0;
  }
  EXPECT_EQ(from_socket0, 4u);
  EXPECT_EQ(plan.total_tuples(), 500u);
  EXPECT_EQ(plan.total_morsels(), 5u);
}

TEST(MorselTest, ReassignBalancesAcrossHealthyQueues) {
  MorselPlan plan;
  AppendMorsels(0, 600, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  plan.queues.resize(3);
  // Queues 0 and 2 are healthy and empty: the six morsels of the
  // quarantined queue 1 spread evenly across them.
  const uint64_t moved =
      ReassignQuarantinedQueues(&plan, {true, false, true});
  EXPECT_EQ(moved, 6u);
  EXPECT_TRUE(plan.queues[1].empty());
  EXPECT_EQ(plan.queues[0].size(), 3u);
  EXPECT_EQ(plan.queues[2].size(), 3u);
}

TEST(MorselTest, ReassignNoopWhenEverySocketQuarantined) {
  MorselPlan plan;
  AppendMorsels(0, 200, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AppendMorsels(200, 400, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  // Degraded beats deadlocked: with nowhere healthy the plan stands.
  EXPECT_EQ(ReassignQuarantinedQueues(&plan, {false, false}), 0u);
  EXPECT_EQ(plan.queues[0].size(), 2u);
  EXPECT_EQ(plan.queues[1].size(), 2u);
}

TEST(MorselTest, ReassignTreatsUnknownSocketsAsHealthy) {
  MorselPlan plan;
  AppendMorsels(0, 200, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AppendMorsels(200, 400, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  // healthy[] only covers socket 0: socket 1 is beyond it and presumed
  // healthy, so queue 0's morsels land there.
  EXPECT_EQ(ReassignQuarantinedQueues(&plan, {false}), 2u);
  EXPECT_TRUE(plan.queues[0].empty());
  EXPECT_EQ(plan.queues[1].size(), 4u);
}

TEST(MorselTest, ReassignWithEmptyHealthyVectorIsNoop) {
  MorselPlan plan;
  AppendMorsels(0, 200, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  // No health information at all: everything is presumed healthy.
  EXPECT_EQ(ReassignQuarantinedQueues(&plan, {}), 0u);
  EXPECT_EQ(plan.queues[0].size(), 2u);
}

// --- 256 B XPLine morsel shaping -------------------------------------------

TEST(MorselShaping, AlignedPlansAreUntouched) {
  // 16 B tuples: 16 tuples per XPLine; morsels of 4096 tuples land every
  // boundary on a line, so shaping is a no-op and amplification is zero.
  MorselPlan plan;
  AppendMorsels(0, 20'000, /*socket=*/0, /*morsel_tuples=*/4096, &plan);
  MorselPlan shaped = plan;
  AlignMorselPlan(&shaped, /*bytes_per_tuple=*/16);
  ASSERT_EQ(shaped.queues.size(), plan.queues.size());
  EXPECT_EQ(shaped.queues[0].size(), plan.queues[0].size());
  for (size_t i = 0; i < plan.queues[0].size(); ++i) {
    EXPECT_EQ(shaped.queues[0][i].begin, plan.queues[0][i].begin);
    EXPECT_EQ(shaped.queues[0][i].end, plan.queues[0][i].end);
  }
  EXPECT_EQ(TornBoundaries(plan, 16) * kXPLineBytes, 0u);
}

TEST(MorselShaping, TornBoundariesSnapToLinesAndAmplificationDrops) {
  // 16 B tuples: a line is 16 tuples; morsels of 100 tuples tear every
  // interior boundary (100 % 16 != 0).
  MorselPlan plan;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  ASSERT_EQ(plan.queues[0].size(), 10u);
  // 9 interior boundaries at byte offsets 1600*k; 1600*k % 256 == 0 only
  // for k in {4, 8}, so 7 boundaries tear: one 256 B re-read each.
  EXPECT_EQ(TornBoundaries(plan, 16) * kXPLineBytes, 7u * 256u);

  AlignMorselPlan(&plan, 16);
  EXPECT_EQ(TornBoundaries(plan, 16) * kXPLineBytes, 0u);
  // Ranges survive: still [0, 1000), contiguous, in order.
  uint64_t expected_begin = 0;
  for (const Morsel& m : plan.queues[0]) {
    EXPECT_EQ(m.begin, expected_begin);
    EXPECT_LT(m.begin, m.end);
    expected_begin = m.end;
    // Interior boundaries are line-aligned (the final end is the range
    // end, aligned or not).
    if (m.end != 1000) {
      EXPECT_EQ(m.end % 16, 0u);
    }
  }
  EXPECT_EQ(expected_begin, 1000u);
  EXPECT_EQ(plan.total_tuples(), 1000u);
}

TEST(MorselShaping, SnapCoalescesEmptiedMorsels) {
  // 128 B tuples: 2 tuples per line. Morsels of 1 tuple: snapping the
  // first boundary from 1 to 2 swallows the second morsel, and so on —
  // the plan halves without losing a tuple.
  MorselPlan plan;
  AppendMorsels(0, 8, /*socket=*/0, /*morsel_tuples=*/1, &plan);
  ASSERT_EQ(plan.queues[0].size(), 8u);
  AlignMorselPlan(&plan, 128);
  EXPECT_EQ(plan.queues[0].size(), 4u);
  EXPECT_EQ(plan.total_tuples(), 8u);
  EXPECT_EQ(TornBoundaries(plan, 2) * kXPLineBytes, 0u);
}

TEST(MorselShaping, RunBoundariesAndOtherQueuesAreIndependent) {
  // Two sockets with their own queues: shaping one queue's interior never
  // moves the other's morsels, and the start of each contiguous run stays
  // where the partition put it.
  MorselPlan plan;
  AppendMorsels(100, 600, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AppendMorsels(600, 1100, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  AlignMorselPlan(&plan, 16);
  EXPECT_EQ(plan.queues[0].front().begin, 100u);
  EXPECT_EQ(plan.queues[0].back().end, 600u);
  EXPECT_EQ(plan.queues[1].front().begin, 600u);
  EXPECT_EQ(plan.queues[1].back().end, 1100u);
  EXPECT_EQ(plan.total_tuples(), 1000u);
}

TEST(MorselShaping, ZeroBytesPerTupleIsANoop) {
  MorselPlan plan;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  MorselPlan copy = plan;
  AlignMorselPlan(&plan, 0);
  EXPECT_EQ(plan.queues[0].size(), copy.queues[0].size());
  // A zero-width tuple's quantum is one tuple: no boundary tears.
  EXPECT_EQ(TornBoundaries(plan, 1) * kXPLineBytes, 0u);
}

// --- Code-frame morsel shaping (encoded scans) ------------------------------

TEST(MorselFrameShaping, TornBoundariesCountsUnalignedInteriors) {
  // Frames of 32 tuples; morsels of 100 tuples: 9 interior boundaries at
  // 100*k, and 100*k % 32 == 0 only for k = 8 — so 8 boundaries tear.
  MorselPlan plan;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  EXPECT_EQ(TornBoundaries(plan, 32), 8u);
  // Frame-multiple morsels never tear.
  MorselPlan aligned;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/128, &aligned);
  EXPECT_EQ(TornBoundaries(aligned, 32), 0u);
}

TEST(MorselFrameShaping, AlignTuplesSnapsToFramesAndPreservesCoverage) {
  MorselPlan plan;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AlignMorselPlanTuples(&plan, 32);
  EXPECT_EQ(TornBoundaries(plan, 32), 0u);
  // Ranges survive: still [0, 1000), contiguous, in order, interior
  // boundaries on frame multiples (the final end is the range end).
  uint64_t expected_begin = 0;
  for (const Morsel& m : plan.queues[0]) {
    EXPECT_EQ(m.begin, expected_begin);
    EXPECT_LT(m.begin, m.end);
    expected_begin = m.end;
    if (m.end != 1000) {
      EXPECT_EQ(m.end % 32, 0u);
    }
  }
  EXPECT_EQ(expected_begin, 1000u);
  EXPECT_EQ(plan.total_tuples(), 1000u);
}

TEST(MorselFrameShaping, AlignTuplesCoalescesSwallowedMorsels) {
  // Morsels of 1 tuple against 32-tuple frames: snapping swallows whole
  // runs of tiny morsels without losing a tuple.
  MorselPlan plan;
  AppendMorsels(0, 64, /*socket=*/0, /*morsel_tuples=*/1, &plan);
  ASSERT_EQ(plan.queues[0].size(), 64u);
  AlignMorselPlanTuples(&plan, 32);
  EXPECT_EQ(plan.queues[0].size(), 2u);
  EXPECT_EQ(plan.total_tuples(), 64u);
  EXPECT_EQ(TornBoundaries(plan, 32), 0u);
}

TEST(MorselFrameShaping, QuantumOfZeroOrOneIsANoop) {
  MorselPlan plan;
  AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  MorselPlan copy = plan;
  AlignMorselPlanTuples(&plan, 0);
  EXPECT_EQ(plan.queues[0].size(), copy.queues[0].size());
  AlignMorselPlanTuples(&plan, 1);
  EXPECT_EQ(plan.queues[0].size(), copy.queues[0].size());
  EXPECT_EQ(TornBoundaries(plan, 0), 0u);
  EXPECT_EQ(TornBoundaries(plan, 1), 0u);
}

TEST(MorselFrameShaping, SeparateQueueRunsShapeIndependently) {
  // Two sockets: each queue's run start stays where the partition put it
  // and only its own interior boundaries snap.
  MorselPlan plan;
  AppendMorsels(100, 600, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  AppendMorsels(600, 1100, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  AlignMorselPlanTuples(&plan, 32);
  EXPECT_EQ(plan.queues[0].front().begin, 100u);
  EXPECT_EQ(plan.queues[0].back().end, 600u);
  EXPECT_EQ(plan.queues[1].front().begin, 600u);
  EXPECT_EQ(plan.queues[1].back().end, 1100u);
  EXPECT_EQ(plan.total_tuples(), 1000u);
  EXPECT_EQ(TornBoundaries(plan, 32), 0u);
}

}  // namespace
}  // namespace pmemolap
