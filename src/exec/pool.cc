#include "exec/pool.h"

#include <algorithm>

namespace pmemolap {
namespace {

/// A zero-thread pool's run: `plan` on the calling thread.
Status RunInline(const MorselPlan& plan,
                 const WorkStealingPool::MorselTask& task,
                 const WorkStealingPool::RunControl& control) {
  Status status;
  WorkStealingPool::Stats stats;
  for (const std::vector<Morsel>& queue : plan.queues) {
    for (const Morsel& morsel : queue) {
      // After the first failure the rest drain unexecuted, as on the
      // threaded path (a failed task's morsel counts as neither).
      if (status.ok() && control.cancel) status = control.cancel();
      if (!status.ok()) {
        ++stats.dropped;
        continue;
      }
      status = task(morsel, 0);
      if (status.ok()) ++stats.executed;
    }
  }
  if (control.stats != nullptr) *control.stats = stats;
  return status;
}

}  // namespace

WorkStealingPool::WorkStealingPool(int threads, int queues)
    : queues_(std::max(1, queues)) {
  const int n = std::max(0, threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool WorkStealingPool::PopMorsel(int worker, Morsel* morsel, bool* steal) {
  const size_t num_queues = run_queues_.size();
  const size_t home = static_cast<size_t>(worker) % num_queues;
  if (!run_queues_[home].empty()) {
    *morsel = run_queues_[home].front();
    run_queues_[home].pop_front();
    *steal = false;
    return true;
  }
  // Steal from the fullest other queue, back-first: the victim's workers
  // keep consuming their sequential prefix undisturbed.
  size_t victim = num_queues;
  size_t victim_size = 0;
  for (size_t q = 0; q < num_queues; ++q) {
    if (q == home) continue;
    if (run_queues_[q].size() > victim_size) {
      victim_size = run_queues_[q].size();
      victim = q;
    }
  }
  if (victim == num_queues) return false;
  *morsel = run_queues_[victim].back();
  run_queues_[victim].pop_back();
  *steal = true;
  return true;
}

void WorkStealingPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    Morsel morsel;
    bool steal = false;
    while (!stop_ && PopMorsel(worker, &morsel, &steal)) {
      if (cancelled_) {
        // A prior morsel failed or the run was cancelled: drain without
        // executing.
        ++stats_.dropped;
        if (--pending_ == 0) done_cv_.notify_all();
        continue;
      }
      if (cancel_ != nullptr) {
        // Between-morsel cancellation point: evaluated outside the lock
        // (the hook may read clocks or counters), never mid-task. The
        // popped morsel is charged as dropped, and cancelled_ makes every
        // later pop — including racing stealers — take the drain branch.
        lock.unlock();
        Status cancel_status = (*cancel_)();
        lock.lock();
        if (!cancel_status.ok() || cancelled_) {
          if (run_status_.ok() && !cancel_status.ok()) {
            run_status_ = std::move(cancel_status);
          }
          cancelled_ = true;
          ++stats_.dropped;
          if (--pending_ == 0) done_cv_.notify_all();
          continue;
        }
      }
      lock.unlock();
      Status status = (*task_)(morsel, worker);
      lock.lock();
      if (status.ok()) {
        ++stats_.executed;
        if (steal) ++stats_.stolen;
      } else {
        if (run_status_.ok()) run_status_ = std::move(status);
        cancelled_ = true;
      }
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

Status WorkStealingPool::RunWithControl(const MorselPlan& plan,
                                        const MorselTask& task,
                                        const RunControl& control) {
  if (workers_.empty()) return RunInline(plan, task, control);
  // Depth signal for admission control: counted from submission (a run
  // queued on run_mutex_ is load the executor has already accepted).
  struct InflightGuard {
    std::atomic<int>& counter;
    explicit InflightGuard(std::atomic<int>& c) : counter(c) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } inflight(inflight_runs_);

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  run_queues_.clear();
  run_queues_.resize(std::max<size_t>(1, plan.queues.size()));
  uint64_t total = 0;
  for (size_t s = 0; s < plan.queues.size(); ++s) {
    run_queues_[s].assign(plan.queues[s].begin(), plan.queues[s].end());
    total += run_queues_[s].size();
  }
  if (total == 0) {
    if (control.stats != nullptr) *control.stats = Stats{};
    return Status::OK();
  }
  task_ = &task;
  cancel_ = control.cancel ? &control.cancel : nullptr;
  pending_ = total;
  cancelled_ = false;
  run_status_ = Status::OK();
  stats_ = Stats{};
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  task_ = nullptr;
  cancel_ = nullptr;
  if (control.stats != nullptr) *control.stats = stats_;
  return run_status_;
}

}  // namespace pmemolap
