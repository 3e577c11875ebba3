// Fixed-size, exception-safe worker pool shared by the evaluation hot path.
//
// The pool exists to make downstream-task evaluation — the wall-clock
// bottleneck the paper's Performance Predictor attacks (Table II) — run as
// wide as the hardware allows without changing a single score: the k folds
// of one evaluation are independent units of work whose seeds are derived up
// front, so any interleaving reproduces the serial results bit for bit.
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * One process-wide pool (`ThreadPool::Shared()`), sized to
//     hardware_concurrency; call sites cap their own parallelism per call.
//     `ParallelFor` has one caller: the evaluator (src/ml/evaluator.cc).
//   * `ParallelFor` is a blocking fork-join: the calling thread participates
//     in the loop, so progress is guaranteed even when every worker is busy.
//   * Nested `ParallelFor` calls from inside a worker run inline (serial).
//     No in-tree caller nests; a nested call runs inline instead of
//     deadlocking on the shared queue.
//   * The first exception thrown by the body is captured and rethrown on the
//     calling thread after the loop quiesces; remaining indices may be
//     skipped.
//   * Every pool counts its tasks into one process-wide set of metrics
//     (`PoolMetricsSnapshot()`), which the engine reports as its delta over
//     a run.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace fastft {
namespace common {

/// Resolves a user-facing thread-count knob: 0 means "all hardware threads"
/// (at least 1), any positive value is taken as-is.
int ResolveThreadCount(int requested);

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is allowed; everything then runs
  /// inline on the calling thread).
  explicit ThreadPool(int num_workers);
  /// Drains queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for every i in [begin, end) using at most `max_parallelism`
  /// concurrent executors (the calling thread plus up to
  /// max_parallelism - 1 workers). Blocks until every claimed index
  /// finished. max_parallelism <= 1 — or a call from inside a pool worker —
  /// runs the loop inline. The first exception is rethrown on the caller.
  void ParallelFor(int64_t begin, int64_t end, int max_parallelism,
                   const std::function<void(int64_t)>& fn);

  /// Process-wide pool sized so that a caller plus all workers saturate the
  /// hardware. Created on first use; intentionally never destroyed.
  static ThreadPool& Shared();

 private:
  void WorkerLoop(int worker_index);
  void Enqueue(std::function<void()> task);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ FASTFT_GUARDED_BY(mu_);
  bool stop_ FASTFT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only in the constructor
};

/// Convenience fork-join over the shared pool: runs fn(i) for i in
/// [begin, end) with up to `threads` concurrent executors. threads <= 1 runs
/// inline without ever touching (or lazily creating) the shared pool, so
/// serial configurations stay thread-free.
void ParallelFor(int64_t begin, int64_t end, int threads,
                 const std::function<void(int64_t)>& fn);

/// Counts of every pool's tasks since process start: pool.tasks, then the
/// pool.queue_wait_us and pool.task_run_us histograms (microseconds).
obs::MetricsSnapshot PoolMetricsSnapshot();

}  // namespace common
}  // namespace fastft
