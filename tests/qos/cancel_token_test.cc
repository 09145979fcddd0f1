// CancelToken: wall budgets, modeled deadlines and the
// first-terminal-status-wins latch.
#include "qos/cancel_token.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace pmemolap::qos {
namespace {

TEST(CancelTokenTest, UnarmedTokenNeverCancels) {
  CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, ZeroWallBudgetExpiresAtFirstCheck) {
  CancelToken token;
  token.ArmWall(0.0);
  Status status = token.Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, WallBudgetExpiresOncePassed) {
  CancelToken token;
  token.ArmWall(0.002);
  // Freshly armed the budget may still be open; after sleeping past it
  // the token must report expiry.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ModeledDeadlineFollowsTheProvidedClock) {
  double now = 0.0;
  CancelToken token;
  token.ArmModeled(5.0, [&now] { return now; });
  EXPECT_TRUE(token.Check().ok());
  now = 4.999;
  EXPECT_TRUE(token.Check().ok());
  now = 5.0;
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  // The status latched: winding the clock back does not un-cancel.
  now = 0.0;
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, ModeledDeadlineWithoutClockStaysUnarmed) {
  CancelToken token;
  token.ArmModeled(0.0, nullptr);
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, CancelLatchesFirstTerminalStatus) {
  CancelToken token;
  token.ArmModeled(1.0, [] { return 1.0; });
  const Status modeled = token.Check();
  ASSERT_EQ(modeled.code(), StatusCode::kDeadlineExceeded);
  ASSERT_NE(modeled.message().find("modeled"), std::string::npos);
  // A later expiry cannot replace the latched status, although Check()
  // tests the wall deadline first.
  token.ArmWall(0.0);
  EXPECT_EQ(token.Check().message(), modeled.message());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, ArmFromOptionsWallAndModeled) {
  QueryOptions options;
  options.deadline = Deadline::Wall(0.0);
  CancelToken wall_token;
  ArmFromOptions(&wall_token, options);
  EXPECT_EQ(wall_token.Check().code(), StatusCode::kDeadlineExceeded);

  double now = 0.0;
  QueryOptions modeled;
  modeled.deadline = Deadline::Modeled(1.0);
  CancelToken modeled_token;
  ArmFromOptions(&modeled_token, modeled, [&now] { return now; });
  EXPECT_TRUE(modeled_token.Check().ok());
  now = 1.0;
  EXPECT_EQ(modeled_token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ArmFromOptionsPrefersTheOptionsClock) {
  double options_clock = 10.0;
  double default_clock = 0.0;
  QueryOptions options;
  options.deadline = Deadline::Modeled(5.0);
  options.modeled_clock = [&options_clock] { return options_clock; };
  CancelToken token;
  ArmFromOptions(&token, options, [&default_clock] { return default_clock; });
  // The options clock already sits past the deadline; the default clock
  // does not. The options clock must win.
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, DefaultOptionsArmNothing) {
  QueryOptions options;
  EXPECT_TRUE(options.deadline.unset());
  CancelToken token;
  ArmFromOptions(&token, options);
  EXPECT_TRUE(token.Check().ok());
}

}  // namespace
}  // namespace pmemolap::qos
