// Tests of the fastft::obs metrics layer: counter/histogram
// semantics, registry identity, snapshot deltas, concurrent increments, and
// the JSON export shape.

#include "common/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fastft {
namespace {

// Tests use a fresh local registry so the process-wide Global() — which the
// instrumented subsystems feed — stays out of the assertions.
TEST(MetricsRegistryTest, CounterIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(counter->Value(), 0);
  counter->Increment();
  counter->Increment(5);
  EXPECT_EQ(counter->Value(), 6);
}

TEST(MetricsRegistryTest, SameNameSamePointer) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetHistogram("h", {1.0, 2.0}),
            registry.GetHistogram("h", {9.0}));  // bounds fixed on first use
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

TEST(MetricsRegistryTest, HistogramBucketsValues) {
  obs::Histogram histogram({10.0, 100.0, 1000.0});
  histogram.Observe(5.0);     // <= 10
  histogram.Observe(10.0);    // boundary lands in its own bucket
  histogram.Observe(50.0);    // <= 100
  histogram.Observe(5000.0);  // overflow
  obs::Histogram::Data data = histogram.Snapshot();
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 2);
  EXPECT_EQ(data.counts[1], 1);
  EXPECT_EQ(data.counts[2], 0);
  EXPECT_EQ(data.counts[3], 1);
  EXPECT_EQ(data.count, 4);
  EXPECT_DOUBLE_EQ(data.sum, 5065.0);
  EXPECT_DOUBLE_EQ(data.max, 5000.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsLoseNothing) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.concurrent");
  obs::Histogram* histogram =
      registry.GetHistogram("test.concurrent_us", {1.0, 10.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe(5.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  obs::Histogram::Data data = histogram->Snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(data.sum, 5.0 * kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotFindsByName) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c.one")->Increment(7);
  registry.GetHistogram("h.one", {1.0})->Observe(2.5);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.CounterValue("c.one"), 7);
  EXPECT_EQ(snapshot.CounterValue("c.absent"), 0);
  EXPECT_EQ(snapshot.CounterValue("h.one"), 0);  // not a counter
  const obs::MetricValue* histogram = snapshot.Find("h.one");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->kind, obs::MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(histogram->histogram.sum, 2.5);
}

TEST(MetricsRegistryTest, DeltaSubtractsAndDropsZeroes) {
  obs::MetricsRegistry registry;
  obs::Counter* active = registry.GetCounter("c.active");
  obs::Counter* idle = registry.GetCounter("c.idle");
  obs::Histogram* histogram = registry.GetHistogram("h.lat", {1.0});
  active->Increment(10);
  idle->Increment(3);
  histogram->Observe(0.5);
  obs::MetricsSnapshot start = registry.Snapshot();

  active->Increment(4);
  histogram->Observe(2.0);
  obs::MetricsSnapshot end = registry.Snapshot();

  obs::MetricsSnapshot delta = obs::DeltaSnapshot(start, end);
  EXPECT_EQ(delta.CounterValue("c.active"), 4);
  // Untouched between the snapshots: dropped from the delta entirely.
  EXPECT_EQ(delta.Find("c.idle"), nullptr);
  const obs::MetricValue* lat = delta.Find("h.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, 1);
  ASSERT_EQ(lat->histogram.counts.size(), 2u);
  EXPECT_EQ(lat->histogram.counts[0], 0);
  EXPECT_EQ(lat->histogram.counts[1], 1);  // only the new overflow observe
}

TEST(MetricsRegistryTest, MetricNewAfterStartPassesThroughDelta) {
  obs::MetricsRegistry registry;
  obs::MetricsSnapshot start = registry.Snapshot();
  registry.GetCounter("c.born_later")->Increment(9);
  obs::MetricsSnapshot delta =
      obs::DeltaSnapshot(start, registry.Snapshot());
  EXPECT_EQ(delta.CounterValue("c.born_later"), 9);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c.n")->Increment(2);
  registry.GetHistogram("h.us", {10.0})->Observe(3.0);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.n\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);

  obs::MetricsSnapshot empty;
  EXPECT_EQ(empty.ToJson(), "{\"counters\": {}, \"histograms\": {}}");
}

TEST(MetricsRegistryTest, GlobalIsProcessWide) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("test.global");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("test.global");
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fastft
