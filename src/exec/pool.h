// WorkStealingPool — a persistent, NUMA-topology-aware worker pool with
// per-socket run queues and morsel-granular work stealing.
//
// The paper's handcrafted SSB engine (§6.2) wins by keeping many pinned
// workers busy on near data; a static split of the fact table achieves
// that only when every worker makes identical progress. This pool keeps
// the placement property — each worker drains its home socket's queue
// first, front-to-back, preserving the sequential near scan — and adds
// elasticity: a worker whose home queue is empty steals from the fullest
// other queue (back-first, so the victim keeps its sequential prefix).
//
// Workers are spawned once and reused across queries ("persistent"): a
// query submits a MorselPlan through RunWithControl(), the pool's one
// entry point, which blocks until every morsel has executed and returns
// the first non-OK Status any morsel task or the run's cancel hook
// produced (remaining morsels of a failed run are drained unexecuted).
// Result determinism is the caller's contract: tasks accumulate into
// per-worker (or per-socket) state whose merge is commutative, so any
// steal schedule produces bit-identical results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/morsel.h"

namespace pmemolap {

class WorkStealingPool {
 public:
  /// A morsel task: executes one morsel as worker `worker` (0-based,
  /// < max(1, threads())). Must be safe to call concurrently from pool
  /// threads.
  using MorselTask = std::function<Status(const Morsel& morsel, int worker)>;

  /// Spawns max(0, threads) persistent workers serving max(1, queues) run
  /// queues. Worker w's home queue is w % queues. A zero-thread pool
  /// runs each plan inline on the calling thread as worker 0, queue by
  /// queue and each front to back, with no steals or run serialization;
  /// its inflight_runs() stays 0.
  WorkStealingPool(int threads, int queues);
  /// Joins all workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Dispatch evidence of one run.
  struct Stats {
    uint64_t executed = 0;  ///< morsels that ran to completion
    uint64_t stolen = 0;    ///< executed morsels taken from a non-home queue
    uint64_t dropped = 0;   ///< morsels drained unexecuted (failure/cancel)
  };

  /// Per-run controls for RunWithControl.
  struct RunControl {
    /// Cooperative cancellation: checked between morsels (never while a
    /// task is executing). The first non-OK Status cancels the run — the
    /// remaining morsels drain unexecuted and the Status is returned.
    /// Must be cheap and safe to call concurrently from pool threads.
    std::function<Status()> cancel;
    /// Optional out-param: filled with this run's dispatch stats before
    /// RunWithControl returns.
    Stats* stats = nullptr;
  };

  /// Executes every morsel of `plan` on every pool worker under
  /// `control`'s between-morsel cancel hook (deadlines, external aborts),
  /// and blocks until done. Returns the first failure Status; on failure
  /// the remaining morsels are dropped (drained without executing).
  /// Thread-safe: concurrent runs serialize on a threaded pool and run
  /// side by side on an inline one.
  Status RunWithControl(const MorselPlan& plan, const MorselTask& task,
                        const RunControl& control);

  int threads() const { return static_cast<int>(workers_.size()); }
  int queues() const { return queues_; }

  /// Runs submitted and not yet finished — the queue-depth signal the
  /// admission layer reads as backpressure. Includes the run a worker is
  /// currently draining, so any value > 0 means the executor is busy and
  /// values > 1 mean submissions are queueing on the run mutex.
  int inflight_runs() const {
    return inflight_runs_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(int worker);
  /// Pops the next morsel for `worker` (home queue front first, else the
  /// fullest other queue's back). Caller holds mutex_. Returns false when
  /// every queue is empty.
  bool PopMorsel(int worker, Morsel* morsel, bool* steal);

  const int queues_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // --- State of the in-flight run (guarded by mutex_) ---
  std::mutex run_mutex_;  ///< serializes RunWithControl() callers
  std::atomic<int> inflight_runs_{0};
  uint64_t generation_ = 0;
  std::vector<std::deque<Morsel>> run_queues_;
  const MorselTask* task_ = nullptr;
  const std::function<Status()>* cancel_ = nullptr;
  uint64_t pending_ = 0;  ///< morsels not yet fully executed
  bool cancelled_ = false;
  Status run_status_;
  Stats stats_;
};

}  // namespace pmemolap
