// Tests for the shared fork-join thread pool behind parallel evaluation.

#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace fastft {
namespace common {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansAllHardwareThreads) {
  int hw = ResolveThreadCount(0);
  EXPECT_GE(hw, 1);
}

TEST(ResolveThreadCountTest, PositiveRequestsPassThrough) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(4), 4);
}

// First among the pool tests, so in a whole-binary run too it sees the
// metrics before any task has run.
TEST(ThreadPoolTest, PoolMetricsCountEveryPool) {
  const obs::MetricsSnapshot start = PoolMetricsSnapshot();
  std::vector<std::string> names;
  for (const obs::MetricValue& value : start.values) {
    names.push_back(value.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "pool.tasks", "pool.queue_wait_us", "pool.task_run_us"}));

  {
    // Three executors over 8 indices: the caller plus 2 enqueued tasks.
    // Leaving the scope joins the workers, so both tasks have also recorded
    // their run time before the snapshot below.
    ThreadPool pool(2);
    pool.ParallelFor(0, 8, 3, [](int64_t) {});
  }
  const obs::MetricsSnapshot delta =
      obs::DeltaSnapshot(start, PoolMetricsSnapshot());
  EXPECT_EQ(delta.CounterValue("pool.tasks"), 2);
  const obs::MetricValue* wait = delta.Find("pool.queue_wait_us");
  const obs::MetricValue* run = delta.Find("pool.task_run_us");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(wait->histogram.count, 2);
  EXPECT_EQ(run->histogram.count, 2);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const int64_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 4, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 4, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A single-element range runs inline on the caller.
  pool.ParallelFor(7, 8, 4, [&](int64_t i) {
    ++calls;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 4,
                       [&](int64_t i) {
                         if (i == 37) throw std::runtime_error("boom at 37");
                       }),
      std::runtime_error);
  // The pool stays usable after an exception: workers must have drained the
  // failed loop instead of wedging on its state.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, 4, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyParallelForCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 64, 4, [&](int64_t i) { sum.fetch_add(i + round); });
    EXPECT_EQ(sum.load(), 63 * 64 / 2 + 64 * round);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // An inner ParallelFor issued from a worker thread must not queue onto the
  // same pool (classic fork-join deadlock); it runs inline instead.
  ThreadPool pool(2);
  std::atomic<int64_t> inner_total{0};
  pool.ParallelFor(0, 8, 4, [&](int64_t) {
    pool.ParallelFor(0, 8, 4, [&](int64_t j) { inner_total.fetch_add(j); });
  });
  EXPECT_EQ(inner_total.load(), 8 * (7 * 8 / 2));
}

TEST(ThreadPoolTest, FreeParallelForRunsSeriallyForOneThread) {
  // threads <= 1 must never touch the shared pool; the loop body runs on the
  // calling thread in index order.
  std::vector<int64_t> order;
  ParallelFor(0, 10, 1, [&](int64_t i) { order.push_back(i); });
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, FreeParallelForCoversRangeWithManyThreads) {
  const int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, n, 4, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 0);
}

}  // namespace
}  // namespace common
}  // namespace fastft
