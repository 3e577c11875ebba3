#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace fastft {
namespace common {
namespace {

thread_local bool tls_in_worker = false;

// Queue-wait (enqueue -> dequeue) vs. run time of pool tasks: the scheduling
// signal a flat per-bucket timer cannot show. Counting only; never alters
// what a task computes. Leaked on purpose, like the shared pool: its workers
// may still count during static destruction.
struct PoolMetrics {
  obs::Counter tasks;
  obs::Histogram queue_wait_us{obs::LatencyBucketsUs()};
  obs::Histogram run_us{obs::LatencyBucketsUs()};
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_workers) {
  num_workers = std::max(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_in_worker = true;
  // Explicit registration: spans recorded by this worker — and its log
  // lines — carry a stable, named tid in trace exports.
  obs::RegisterThisThread("pool-worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(&lock);
      // Drain the queue even when stopping so every enqueued task runs
      // before the destructor joins.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  // Tasks are per-executor (one per ParallelFor worker), not per loop
  // index, so the three clock reads per task are noise next to the work
  // they bracket. One start/end pair feeds both the run-time histogram
  // and, when tracing was on at start, the pool/task span, so the two agree
  // and neither charges the other's bookkeeping to the task.
  const uint64_t enqueue_ns = obs::internal::NowNs();
  auto instrumented = [task = std::move(task), enqueue_ns] {
    PoolMetrics& metrics = Metrics();
    const bool traced = obs::TracingActive();
    const uint64_t start_ns = obs::internal::NowNs();
    metrics.tasks.Increment();
    metrics.queue_wait_us.Observe(
        static_cast<double>(start_ns - enqueue_ns) / 1000.0);
    task();
    const uint64_t end_ns = obs::internal::NowNs();
    metrics.run_us.Observe(static_cast<double>(end_ns - start_ns) / 1000.0);
    if (traced) obs::internal::RecordSpan("pool/task", start_ns, end_ns);
  };
  {
    MutexLock lock(&mu_);
    FASTFT_CHECK(!stop_) << "task submitted to a stopped ThreadPool";
    queue_.push_back(std::move(instrumented));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int max_parallelism,
                             const std::function<void(int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t executors =
      std::min({static_cast<int64_t>(std::max(max_parallelism, 1)),
                static_cast<int64_t>(num_workers()) + 1, n});
  if (executors <= 1 || tls_in_worker) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Dynamic index claiming: every executor (the caller included) pulls the
  // next unclaimed index. Work per index is independent, so the claim order
  // cannot affect results — only the wall clock.
  struct LoopState {
    std::atomic<int64_t> next{0};
    int64_t end = 0;
    const std::function<void(int64_t)>* fn = nullptr;
    std::atomic<bool> abort{false};
    Mutex mu;
    CondVar done;
    int active_runners FASTFT_GUARDED_BY(mu) = 0;
    std::exception_ptr error FASTFT_GUARDED_BY(mu);
  };
  auto state = std::make_shared<LoopState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->fn = &fn;
  state->active_runners = static_cast<int>(executors) - 1;

  auto run = [](const std::shared_ptr<LoopState>& s) {
    while (!s->abort.load(std::memory_order_relaxed)) {
      const int64_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->end) break;
      try {
        (*s->fn)(i);
      } catch (...) {
        {
          MutexLock lock(&s->mu);
          if (!s->error) s->error = std::current_exception();
        }
        s->abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  for (int64_t w = 1; w < executors; ++w) {
    Enqueue([state, run] {
      run(state);
      MutexLock lock(&state->mu);
      if (--state->active_runners == 0) state->done.NotifyAll();
    });
  }
  run(state);  // The caller participates: progress even under a full queue.

  MutexLock lock(&state->mu);
  while (state->active_runners != 0) state->done.Wait(&lock);
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: worker threads must outlive every static destructor
  // that might still evaluate. Caller + workers = hardware threads.
  static ThreadPool* pool = new ThreadPool(ResolveThreadCount(0) - 1);
  return *pool;
}

void ParallelFor(int64_t begin, int64_t end, int threads,
                 const std::function<void(int64_t)>& fn) {
  if (threads <= 1 || end - begin <= 1 || tls_in_worker) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ThreadPool::Shared().ParallelFor(begin, end, threads, fn);
}

obs::MetricsSnapshot PoolMetricsSnapshot() {
  const PoolMetrics& metrics = Metrics();
  obs::MetricsSnapshot snapshot;
  snapshot.values.push_back(
      {"pool.tasks", obs::MetricKind::kCounter, metrics.tasks.Value(), {}});
  snapshot.values.push_back({"pool.queue_wait_us", obs::MetricKind::kHistogram,
                             0, metrics.queue_wait_us.Snapshot()});
  snapshot.values.push_back({"pool.task_run_us", obs::MetricKind::kHistogram,
                             0, metrics.run_us.Snapshot()});
  return snapshot;
}

}  // namespace common
}  // namespace fastft
