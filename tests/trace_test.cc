// Tests of the fastft::obs tracing layer: ring semantics, aggregation,
// Chrome-trace export, pool-worker attribution, thread-registry ids, and the
// engine integration (trace_path wiring + determinism cross-checks).

#include "common/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

// Every test stops tracing on exit so a failing assertion cannot leave the
// recorder armed for unrelated tests in this binary.
class TraceTest : public ::testing::Test {
 protected:
  ~TraceTest() override { obs::StopTracing(); }
};

int64_t CountSpans(const obs::TraceSnapshot& snapshot, const char* name) {
  int64_t count = 0;
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    for (const obs::SpanEvent& event : thread.events) {
      if (std::string(event.name) == name) ++count;
    }
  }
  return count;
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::TracingActive());
  const int64_t before = obs::SnapshotTrace().TotalEvents();
  { FASTFT_TRACE_SPAN("test/disabled"); }
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  EXPECT_EQ(snapshot.TotalEvents(), before);
  EXPECT_EQ(CountSpans(snapshot, "test/disabled"), 0);
}

// A span with an elapsed sink times its scope with tracing off too; with
// tracing on, the span it records is exactly what it adds to the sink.
TEST_F(TraceTest, ElapsedSinkMatchesRecordedSpan) {
  ASSERT_FALSE(obs::TracingActive());
  const int64_t before = obs::SnapshotTrace().TotalEvents();
  uint64_t elapsed_ns = 0;
  {
    obs::TraceSpan span("test/sink", &elapsed_ns);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  EXPECT_GT(elapsed_ns, 0u);
  EXPECT_EQ(obs::SnapshotTrace().TotalEvents(), before);

  const uint64_t untraced_ns = elapsed_ns;
  obs::StartTracing();
  {
    obs::TraceSpan span("test/sink", &elapsed_ns);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  obs::StopTracing();
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  ASSERT_EQ(snapshot.TotalEvents(), 1);
  ASSERT_EQ(CountSpans(snapshot, "test/sink"), 1);
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    for (const obs::SpanEvent& event : thread.events) {
      EXPECT_EQ(event.duration_ns, elapsed_ns - untraced_ns);
    }
  }
}

TEST_F(TraceTest, RecordsSpansWhileActive) {
  obs::StartTracing();
  { FASTFT_TRACE_SPAN("test/alpha"); }
  { FASTFT_TRACE_SPAN("test/alpha"); }
  { FASTFT_TRACE_SPAN("test/beta"); }
  obs::StopTracing();

  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  EXPECT_EQ(CountSpans(snapshot, "test/alpha"), 2);
  EXPECT_EQ(CountSpans(snapshot, "test/beta"), 1);
  // Frozen rings: nothing is recorded after StopTracing.
  { FASTFT_TRACE_SPAN("test/after_stop"); }
  EXPECT_EQ(CountSpans(obs::SnapshotTrace(), "test/after_stop"), 0);
}

TEST_F(TraceTest, StartClearsPreviousSession) {
  obs::StartTracing();
  { FASTFT_TRACE_SPAN("test/old"); }
  obs::StartTracing();  // restart: old spans must vanish
  { FASTFT_TRACE_SPAN("test/new"); }
  obs::StopTracing();
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  EXPECT_EQ(CountSpans(snapshot, "test/old"), 0);
  EXPECT_EQ(CountSpans(snapshot, "test/new"), 1);
}

TEST_F(TraceTest, RingDropsOldestBeyondCapacity) {
  obs::TraceOptions options;
  options.ring_capacity = 4;
  obs::StartTracing(options);
  // Distinct names so retention order is observable.
  static const char* names[10] = {"t/0", "t/1", "t/2", "t/3", "t/4",
                                  "t/5", "t/6", "t/7", "t/8", "t/9"};
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span(names[i]);
  }
  obs::StopTracing();

  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  const obs::ThreadTrace* mine = nullptr;
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    if (!thread.events.empty()) mine = &thread;
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 4u);
  EXPECT_EQ(mine->dropped, 6);
  // Oldest-first order, only the newest four survive.
  EXPECT_STREQ(mine->events[0].name, "t/6");
  EXPECT_STREQ(mine->events[3].name, "t/9");
  for (size_t i = 1; i < mine->events.size(); ++i) {
    EXPECT_GE(mine->events[i].start_ns, mine->events[i - 1].start_ns);
  }
}

// Restarting after a wrapped session resets each ring by `count = 0` (and a
// resize when the capacity changes): the stale slots of the wrapped session
// must stay unreachable, whether the ring grows or shrinks.
TEST_F(TraceTest, RestartAfterWrappedSessionKeepsOnlyNewSpans) {
  static const char* old_names[12] = {"o/0", "o/1", "o/2", "o/3",
                                      "o/4", "o/5", "o/6", "o/7",
                                      "o/8", "o/9", "o/10", "o/11"};
  static const char* new_names[3] = {"n/0", "n/1", "n/2"};
  for (auto [wrapped_capacity, restart_capacity] :
       {std::pair<size_t, size_t>{4, 8}, {8, 4}}) {
    obs::TraceOptions options;
    options.ring_capacity = wrapped_capacity;
    obs::StartTracing(options);
    for (const char* name : old_names) obs::TraceSpan span(name);
    options.ring_capacity = restart_capacity;
    obs::StartTracing(options);
    for (const char* name : new_names) obs::TraceSpan span(name);
    obs::StopTracing();

    const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
    const obs::ThreadTrace& mine = snapshot.threads.at(obs::CurrentThreadId());
    ASSERT_EQ(mine.events.size(), 3u)
        << wrapped_capacity << " -> " << restart_capacity;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_STREQ(mine.events[i].name, new_names[i]);
    }
    EXPECT_EQ(mine.dropped, 0);
  }
}

TEST_F(TraceTest, SummaryAggregatesAcrossSpans) {
  obs::StartTracing();
  for (int i = 0; i < 5; ++i) {
    FASTFT_TRACE_SPAN("test/summary");
  }
  obs::StopTracing();

  std::vector<obs::SpanStats> stats =
      obs::SummarizeSpans(obs::SnapshotTrace());
  const obs::SpanStats* found = nullptr;
  for (const obs::SpanStats& s : stats) {
    if (s.name == "test/summary") found = &s;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 5);
  EXPECT_GE(found->max_ns, 0u);
  EXPECT_GE(static_cast<double>(found->total_ns), found->MeanNs());
  int64_t by_thread_total = 0;
  for (const auto& [tid, count] : found->count_by_thread) {
    by_thread_total += count;
  }
  EXPECT_EQ(by_thread_total, found->count);
}

TEST_F(TraceTest, ChromeJsonHasRequiredStructure) {
  obs::StartTracing();
  { FASTFT_TRACE_SPAN("test/json_span"); }
  obs::StopTracing();

  std::string json = obs::ChromeTraceJson(obs::SnapshotTrace());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("test/json_span"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\""), std::string::npos);
  EXPECT_NE(json.find("\"spanSummary\""), std::string::npos);
}

TEST_F(TraceTest, DroppedSpansSectionReconcilesWithSnapshot) {
  obs::TraceOptions options;
  options.ring_capacity = 2;
  obs::StartTracing(options);
  for (int i = 0; i < 7; ++i) {
    FASTFT_TRACE_SPAN("test/overflow");
  }
  obs::StopTracing();

  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  EXPECT_EQ(snapshot.TotalDropped(), 5);

  // The exporter's droppedSpans object carries the same exact per-thread
  // counters the snapshot holds — sum its values and reconcile.
  std::string json = obs::ChromeTraceJson(snapshot);
  size_t begin = json.find("\"droppedSpans\": {");
  ASSERT_NE(begin, std::string::npos);
  begin += std::string("\"droppedSpans\": {").size();
  size_t end = json.find('}', begin);
  ASSERT_NE(end, std::string::npos);
  int64_t exported = 0;
  std::string body = json.substr(begin, end - begin);
  for (size_t pos = body.find(':'); pos != std::string::npos;
       pos = body.find(':', pos + 1)) {
    exported += std::strtoll(body.c_str() + pos + 1, nullptr, 10);
  }
  EXPECT_EQ(exported, snapshot.TotalDropped());
}

TEST_F(TraceTest, PoolWorkersAttributeSpansToNamedThreads) {
  obs::StartTracing();
  // A private pool guarantees real worker threads even on a single-core
  // host (the shared pool would have zero workers there).
  constexpr int kWorkers = 2;
  constexpr int kLoops = 4;
  {
    common::ThreadPool pool(kWorkers);
    for (int loop = 0; loop < kLoops; ++loop) {
      pool.ParallelFor(0, 8, kWorkers + 1, [](int64_t) {
        volatile double sink = 0.0;
        // Plain assignment: compound ops on volatile are deprecated in C++20.
        for (int k = 0; k < 1000; ++k) sink = sink + static_cast<double>(k);
      });
    }
  }
  obs::StopTracing();

  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  // Each ParallelFor enqueues one task per worker (the caller runs its
  // share inline, outside the queue), and every enqueued task is one
  // pool/task span, recorded on a thread registered as a pool worker.
  int64_t pool_spans = 0;
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    for (const obs::SpanEvent& event : thread.events) {
      if (std::string(event.name) != "pool/task") continue;
      ++pool_spans;
      EXPECT_EQ(thread.thread_name.rfind("pool-worker-", 0), 0u)
          << "pool/task span on thread '" << thread.thread_name << "'";
    }
  }
  EXPECT_EQ(pool_spans, kLoops * kWorkers);
}

TEST_F(TraceTest, ThreadIdsFollowRegistrationNotEmissionOrder) {
  // The tracer and FASTFT_LOG share one thread registry: the first name a
  // thread registers wins, and its spans and dropped counter stay keyed by
  // its tid even when threads emit in the opposite order to the one they
  // registered in.
  constexpr int kCapacity = 8;
  obs::TraceOptions options;
  options.ring_capacity = kCapacity;
  obs::StartTracing(options);

  // Thread k records kCapacity + 3 + 2k spans, so it drops 3 + 2k.
  auto emit = [](int k) {
    for (int i = 0; i < kCapacity + 3 + 2 * k; ++i) {
      FASTFT_TRACE_SPAN("test/emitter");
    }
  };
  int tid_a = -1;
  int tid_b = -1;
  std::promise<void> a_registered;
  std::promise<void> a_go;
  std::thread a([&] {
    tid_a = obs::RegisterThisThread("trace-test-a");
    EXPECT_EQ(obs::RegisterThisThread("trace-test-renamed"), tid_a);
    EXPECT_EQ(obs::CurrentThreadId(), tid_a);
    a_registered.set_value();
    a_go.get_future().wait();
    emit(0);
  });
  a_registered.get_future().wait();
  std::thread b([&] {
    tid_b = obs::RegisterThisThread("trace-test-b");
    EXPECT_EQ(obs::CurrentThreadId(), tid_b);
    emit(1);  // B emits before A
  });
  b.join();
  a_go.set_value();
  a.join();
  obs::StopTracing();

  ASSERT_LT(tid_a, tid_b);
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  ASSERT_GT(snapshot.threads.size(), static_cast<size_t>(tid_b));
  for (auto [tid, name, dropped] :
       {std::tuple<int, const char*, int64_t>{tid_a, "trace-test-a", 3},
        {tid_b, "trace-test-b", 5}}) {
    const obs::ThreadTrace& trace = snapshot.threads[tid];
    EXPECT_EQ(trace.tid, tid);
    EXPECT_EQ(trace.thread_name, name);
    EXPECT_EQ(trace.dropped, dropped) << name;
    ASSERT_EQ(trace.events.size(), static_cast<size_t>(kCapacity)) << name;
    EXPECT_STREQ(trace.events[0].name, "test/emitter");
  }
}

TEST_F(TraceTest, EngineRunExportsTraceFile) {
  const std::string path = ::testing::TempDir() + "/fastft_engine_trace.json";
  std::remove(path.c_str());

  SyntheticSpec spec;
  spec.samples = 60;
  spec.features = 5;
  spec.seed = 5;
  Dataset dataset = MakeClassification(spec);
  EngineConfig config;
  config.episodes = 4;
  config.steps_per_episode = 4;
  config.cold_start_episodes = 2;
  config.seed = 17;
  config.trace_path = path;
  FastFtEngine engine(config);
  Result<EngineResult> run = engine.Run(dataset);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EngineResult& result = run.value();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "engine did not write " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The full stack shows up: every instrumented subsystem a default
  // single-threaded run exercises.
  for (const char* subsystem :
       {"engine/run", "engine/step", "evaluator/evaluate", "evaluator/fold",
        "forest/fit_tree", "replay/add", "predictor/predict",
        "novelty/estimate", "encode_cache/lookup", "cluster/mi",
        "cluster/merge"}) {
    EXPECT_NE(json.find(subsystem), std::string::npos)
        << "trace missing subsystem span " << subsystem;
  }

  // Determinism cross-check: span counts are exact functions of the run.
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  EXPECT_EQ(CountSpans(snapshot, "engine/run"), 1);
  EXPECT_EQ(CountSpans(snapshot, "engine/step"), result.total_steps);
  EXPECT_EQ(CountSpans(snapshot, "engine/episode"), config.episodes);
  EXPECT_EQ(snapshot.TotalDropped(), 0);

  std::remove(path.c_str());
}

TEST_F(TraceTest, InvalidRingCapacityRejected) {
  EngineConfig config;
  config.trace_path = "unused.json";
  config.trace_ring_capacity = 0;
  EXPECT_FALSE(ValidateEngineConfig(config).ok());
  config.trace_ring_capacity = 1;
  EXPECT_TRUE(ValidateEngineConfig(config).ok());
  // Capacity is irrelevant when tracing is off.
  config.trace_path.clear();
  config.trace_ring_capacity = 0;
  EXPECT_TRUE(ValidateEngineConfig(config).ok());
}

}  // namespace
}  // namespace fastft
