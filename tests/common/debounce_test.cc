#include "common/debounce.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(DebounceTest, ReadyAfterQuantaConsecutiveRequests) {
  Debounce<int> debounce;
  EXPECT_FALSE(debounce.Ready(4, 6, 3));
  EXPECT_FALSE(debounce.Ready(4, 6, 3));
  EXPECT_TRUE(debounce.Ready(4, 6, 3));
  EXPECT_EQ(debounce.pending(), 6);
}

TEST(DebounceTest, RequestEqualToCommittedEndsTheStreak) {
  Debounce<int> debounce;
  EXPECT_FALSE(debounce.Ready(4, 6, 2));
  EXPECT_FALSE(debounce.Ready(4, 4, 2));  // blip reverted
  EXPECT_FALSE(debounce.Ready(4, 6, 2));  // counts from 1 again
  EXPECT_TRUE(debounce.Ready(4, 6, 2));
}

TEST(DebounceTest, DifferentTargetRestartsTheCountAndBecomesPending) {
  Debounce<int> debounce;
  EXPECT_FALSE(debounce.Ready(4, 6, 2));
  EXPECT_EQ(debounce.pending(), 6);
  EXPECT_FALSE(debounce.Ready(4, 5, 2));
  EXPECT_EQ(debounce.pending(), 5);
  EXPECT_TRUE(debounce.Ready(4, 5, 2));
  EXPECT_EQ(debounce.pending(), 5);
}

TEST(DebounceTest, DeferredCommitStaysReadyUntilReset) {
  Debounce<int> debounce;
  EXPECT_FALSE(debounce.Ready(0, 1, 2));
  for (int quantum = 0; quantum < 5; ++quantum) {
    EXPECT_TRUE(debounce.Ready(0, 1, 2)) << quantum;
  }
  debounce.Reset();
  EXPECT_FALSE(debounce.Ready(0, 1, 2));
  EXPECT_TRUE(debounce.Ready(0, 1, 2));
}

TEST(DebounceTest, OneQuantumCommitsOnTheFirstRequest) {
  Debounce<int> debounce;
  EXPECT_TRUE(debounce.Ready(0, 1, 1));
  EXPECT_EQ(debounce.pending(), 1);
  debounce.Reset();
  EXPECT_TRUE(debounce.Ready(1, 2, 1));
  EXPECT_FALSE(debounce.Ready(2, 2, 1));
}

TEST(DebounceTest, AfterResetARepeatedTargetCountsFromOne) {
  // The caller commits the target and resets; if the committed value
  // later moves back, the same target must persist for the full count.
  Debounce<int> debounce;
  EXPECT_FALSE(debounce.Ready(0, 1, 3));
  EXPECT_FALSE(debounce.Ready(0, 1, 3));
  EXPECT_TRUE(debounce.Ready(0, 1, 3));
  debounce.Reset();
  EXPECT_FALSE(debounce.Ready(2, 1, 3));
  EXPECT_FALSE(debounce.Ready(2, 1, 3));
  EXPECT_TRUE(debounce.Ready(2, 1, 3));
}

}  // namespace
}  // namespace pmemolap
