#include "exec/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/morsel.h"

namespace pmemolap {
namespace {

/// Runs `plan` without a cancel hook; fills `stats` if given.
Status RunPlan(WorkStealingPool* pool, const MorselPlan& plan,
               const WorkStealingPool::MorselTask& task,
               WorkStealingPool::Stats* stats = nullptr) {
  WorkStealingPool::RunControl control;
  control.stats = stats;
  return pool->RunWithControl(plan, task, control);
}

TEST(PoolTest, ExecutesEveryMorselExactlyOnce) {
  for (int threads : {4, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/2);
    MorselPlan plan;
    AppendMorsels(0, 1000, /*socket=*/0, /*morsel_tuples=*/64, &plan);
    AppendMorsels(1000, 2000, /*socket=*/1, /*morsel_tuples=*/64, &plan);

    std::atomic<uint64_t> tuples{0};
    std::atomic<uint64_t> calls{0};
    WorkStealingPool::Stats stats;
    Status status = RunPlan(
        &pool, plan,
        [&](const Morsel& m, int worker) {
          EXPECT_GE(worker, 0);
          EXPECT_LT(worker, std::max(1, pool.threads()));
          tuples.fetch_add(m.size());
          calls.fetch_add(1);
          return Status::OK();
        },
        &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(tuples.load(), 2000u);
    EXPECT_EQ(calls.load(), plan.total_morsels());
    EXPECT_EQ(stats.executed, plan.total_morsels());
  }
}

TEST(PoolTest, PropagatesFirstFailureAndDropsRest) {
  for (int threads : {2, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/1);
    MorselPlan plan;
    AppendMorsels(0, 100, /*socket=*/0, 10, &plan);
    std::atomic<uint64_t> executed{0};
    WorkStealingPool::Stats stats;
    Status status = RunPlan(
        &pool, plan,
        [&](const Morsel& m, int) {
          if (m.begin == 30) {
            return Status::DataLoss("injected morsel failure");
          }
          executed.fetch_add(1);
          return Status::OK();
        },
        &stats);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    // The failed morsel and at least the not-yet-dispatched tail were dropped.
    EXPECT_LT(executed.load(), plan.total_morsels());
    EXPECT_LT(stats.executed, plan.total_morsels());
    if (threads == 0) {
      // Inline, the run stops at the failure: the three morsels before it
      // executed and the six after it drained.
      EXPECT_EQ(stats.executed, 3u);
      EXPECT_EQ(stats.dropped, 6u);
    }
  }
}

// A zero-thread pool is the serial executor: the caller runs every morsel
// itself, as worker 0, queue by queue and each queue front to back.
TEST(PoolTest, InlineRunExecutesOnTheCallerInQueueOrder) {
  WorkStealingPool pool(/*threads=*/0, /*queues=*/2);
  EXPECT_EQ(pool.threads(), 0);
  MorselPlan plan;
  // Queue 1 is filled first; the run still starts with queue 0.
  AppendMorsels(500, 1000, /*socket=*/1, /*morsel_tuples=*/100, &plan);
  AppendMorsels(0, 500, /*socket=*/0, /*morsel_tuples=*/100, &plan);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> begins;
  WorkStealingPool::Stats stats;
  Status status = RunPlan(
      &pool, plan,
      [&](const Morsel& m, int worker) {
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(pool.inflight_runs(), 0);
        begins.push_back(m.begin);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::vector<uint64_t> want = {0,   100, 200, 300, 400,
                                      500, 600, 700, 800, 900};
  EXPECT_EQ(begins, want);
  EXPECT_EQ(stats.executed, plan.total_morsels());
  EXPECT_EQ(stats.stolen, 0u);
}

TEST(PoolTest, ReusableAcrossRuns) {
  WorkStealingPool pool(/*threads=*/3, /*queues=*/1);
  for (int run = 0; run < 5; ++run) {
    MorselPlan plan;
    AppendMorsels(0, 500, /*socket=*/0, 50, &plan);
    std::atomic<uint64_t> tuples{0};
    ASSERT_TRUE(RunPlan(&pool, plan,
                        [&](const Morsel& m, int) {
                          tuples.fetch_add(m.size());
                          return Status::OK();
                        })
                    .ok());
    EXPECT_EQ(tuples.load(), 500u);
  }
}

// Work-stealing stress: queue 0's first morsel stalls its worker while the
// rest of queue 0 still holds work; the queue-1 worker must steal it.
// Requires at least 2 host threads to be meaningful, which the pool
// provides regardless of hardware_concurrency.
TEST(PoolTest, IdleWorkerStealsFromStalledQueue) {
  WorkStealingPool pool(/*threads=*/2, /*queues=*/2);
  MorselPlan plan;
  AppendMorsels(0, 640, /*socket=*/0, /*morsel_tuples=*/64, &plan);
  // Queue 1 exists but is empty: worker 1 (home queue 1) can only make
  // progress by stealing from queue 0.
  plan.queues.resize(2);

  std::atomic<uint64_t> tuples{0};
  WorkStealingPool::Stats stats;
  Status status = RunPlan(
      &pool, plan,
      [&](const Morsel& m, int) {
        if (m.begin == 0) {
          // Stall the first home morsel so the other worker drains the
          // rest.
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        tuples.fetch_add(m.size());
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tuples.load(), 640u);
  EXPECT_EQ(stats.executed, plan.total_morsels());
  // Worker 1 (home queue 1, empty) must have stolen from queue 0.
  EXPECT_GT(stats.stolen, 0u);
}

TEST(PoolTest, RunWithControlCancelBeforeFirstMorselDropsEverything) {
  for (int threads : {4, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/2);
    MorselPlan plan;
    AppendMorsels(0, 1000, /*socket=*/0, 50, &plan);
    std::atomic<uint64_t> tasks_run{0};
    WorkStealingPool::Stats stats;
    WorkStealingPool::RunControl control;
    control.cancel = [] {
      return Status::DeadlineExceeded("deadline already expired");
    };
    control.stats = &stats;
    Status status = pool.RunWithControl(
        plan,
        [&](const Morsel&, int) {
          tasks_run.fetch_add(1);
          return Status::OK();
        },
        control);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    // The hook fires before any task: nothing executes, everything drains.
    EXPECT_EQ(tasks_run.load(), 0u);
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.dropped, plan.total_morsels());
  }
}

TEST(PoolTest, RunWithControlMidRunCancelKeepsPartialProgress) {
  for (int threads : {2, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/1);
    MorselPlan plan;
    AppendMorsels(0, 2000, /*socket=*/0, 20, &plan);  // 100 morsels
    // The hook passes its first 10 checks, then reports an expired
    // deadline: the run must stop between morsels with partial progress.
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> in_task{0};
    WorkStealingPool::Stats stats;
    WorkStealingPool::RunControl control;
    control.cancel = [&] {
      EXPECT_EQ(in_task.load(), 0u) << "cancel hook ran mid-kernel";
      if (checks.fetch_add(1) < 10) return Status::OK();
      return Status::DeadlineExceeded("modeled deadline passed");
    };
    control.stats = &stats;
    Status status = pool.RunWithControl(
        plan,
        [&](const Morsel&, int) {
          in_task.fetch_add(1);
          in_task.fetch_sub(1);
          return Status::OK();
        },
        control);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_GT(stats.executed, 0u);
    EXPECT_GT(stats.dropped, 0u);
    // Every morsel is accounted for exactly once: executed or dropped.
    EXPECT_EQ(stats.executed + stats.dropped, plan.total_morsels());
  }
}

TEST(PoolTest, RunWithControlStatsOutParam) {
  for (int threads : {4, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/1);
    MorselPlan plan;
    AppendMorsels(0, 600, /*socket=*/0, 30, &plan);
    std::atomic<int> max_seen{-1};
    WorkStealingPool::Stats stats;
    WorkStealingPool::RunControl control;
    control.stats = &stats;
    Status status = pool.RunWithControl(
        plan,
        [&](const Morsel&, int worker) {
          int seen = max_seen.load();
          while (worker > seen &&
                 !max_seen.compare_exchange_weak(seen, worker)) {
          }
          return Status::OK();
        },
        control);
    ASSERT_TRUE(status.ok()) << status.ToString();
    // Worker ids stay below max(1, threads()).
    EXPECT_LT(max_seen.load(), std::max(1, threads));
    EXPECT_EQ(stats.executed, plan.total_morsels());
    EXPECT_EQ(stats.dropped, 0u);
  }
}

TEST(PoolTest, RunWithControlEmptyPlanFillsStats) {
  for (int threads : {2, 0}) {
    SCOPED_TRACE(threads);
    WorkStealingPool pool(threads, /*queues=*/1);
    MorselPlan plan;
    WorkStealingPool::Stats stats;
    stats.executed = 99;  // must be overwritten, not left stale
    WorkStealingPool::RunControl control;
    control.stats = &stats;
    ASSERT_TRUE(pool.RunWithControl(
                        plan, [](const Morsel&, int) { return Status::OK(); },
                        control)
                    .ok());
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.dropped, 0u);
  }
}

// Steal stress: one persistent pool hammered with back-to-back runs whose
// work all sits in queue 0, submitted from two racing threads (runs
// serialize internally), with a failing run mixed in every fourth
// iteration. Exercises stealing, cancellation draining, stats accounting
// and cross-run generation handoff — the surfaces the TSan CI job watches.
TEST(PoolStressTest, RacingSubmittersWithStealsAndCancellations) {
  WorkStealingPool pool(/*threads=*/4, /*queues=*/2);
  constexpr int kRunsPerSubmitter = 20;
  constexpr uint64_t kTuplesPerRun = 2000;
  std::atomic<uint64_t> completed_runs{0};
  std::vector<std::thread> submitters;
  for (int submitter = 0; submitter < 2; ++submitter) {
    submitters.emplace_back([&, submitter] {
      for (int run = 0; run < kRunsPerSubmitter; ++run) {
        MorselPlan plan;
        // Imbalanced on purpose: queue 1's workers can only steal.
        AppendMorsels(0, kTuplesPerRun, /*socket=*/0, /*morsel_tuples=*/50,
                      &plan);
        plan.queues.resize(2);
        const bool inject_failure = run % 4 == 3;
        std::atomic<uint64_t> tuples{0};
        Status status = RunPlan(&pool, plan, [&](const Morsel& m, int) {
          if (inject_failure && m.begin >= kTuplesPerRun / 2) {
            return Status::Unavailable("stress-injected failure");
          }
          tuples.fetch_add(m.size());
          return Status::OK();
        });
        if (inject_failure) {
          EXPECT_FALSE(status.ok()) << "submitter " << submitter;
          EXPECT_LT(tuples.load(), kTuplesPerRun);
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
          EXPECT_EQ(tuples.load(), kTuplesPerRun);
          completed_runs.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(completed_runs.load(), 2u * (kRunsPerSubmitter - 5));
}

// Cancellation stress: deadline-armed runs racing work stealing. Every
// run's work sits in queue 0 so queue-1 workers must steal, while the
// cancel hook trips after a per-run number of checks — the cancellation
// latch races stealing pops from all four workers. Run under the TSan CI
// job via the PoolStressTest filter.
TEST(PoolStressTest, CancellationRacesStealsAcrossSubmitters) {
  WorkStealingPool pool(/*threads=*/4, /*queues=*/2);
  constexpr int kRunsPerSubmitter = 16;
  constexpr uint64_t kMorselsPerRun = 80;
  std::vector<std::thread> submitters;
  std::atomic<uint64_t> cancelled_runs{0};
  for (int submitter = 0; submitter < 2; ++submitter) {
    submitters.emplace_back([&, submitter] {
      for (int run = 0; run < kRunsPerSubmitter; ++run) {
        MorselPlan plan;
        AppendMorsels(0, kMorselsPerRun * 25, /*socket=*/0,
                      /*morsel_tuples=*/25, &plan);
        plan.queues.resize(2);
        // Trip point varies per run: 0 (before anything executes) up to
        // beyond the plan (never trips).
        const uint64_t trip_after =
            static_cast<uint64_t>(run) * 8 % (kMorselsPerRun + 20);
        std::atomic<uint64_t> checks{0};
        WorkStealingPool::Stats stats;
        WorkStealingPool::RunControl control;
        control.cancel = [&] {
          if (checks.fetch_add(1) < trip_after) return Status::OK();
          return Status::DeadlineExceeded("stress deadline");
        };
        control.stats = &stats;
        Status status = pool.RunWithControl(
            plan, [](const Morsel&, int) { return Status::OK(); }, control);
        EXPECT_EQ(stats.executed + stats.dropped, plan.total_morsels())
            << "submitter " << submitter << " run " << run;
        if (status.ok()) {
          EXPECT_EQ(stats.dropped, 0u);
        } else {
          EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
          EXPECT_GT(stats.dropped, 0u);
          cancelled_runs.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  // trip_after == 0 happens for run 0 of each submitter at minimum, so
  // cancellation definitely exercised; most trip points land mid-plan.
  EXPECT_GT(cancelled_runs.load(), 0u);
}

}  // namespace
}  // namespace pmemolap
