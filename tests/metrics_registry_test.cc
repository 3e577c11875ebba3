// Tests of the fastft::obs metrics layer: counter/histogram semantics,
// snapshot lookups and deltas, concurrent increments, and the JSON export
// shape. (The suite name predates the removal of the name->metric
// registry; the cases build snapshots from Counter and Histogram directly.)

#include "common/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fastft {
namespace {

obs::MetricValue CounterValue(const std::string& name,
                              const obs::Counter& counter) {
  return {name, obs::MetricKind::kCounter, counter.Value(), {}};
}

obs::MetricValue HistogramValue(const std::string& name,
                                const obs::Histogram& histogram) {
  return {name, obs::MetricKind::kHistogram, 0, histogram.Snapshot()};
}

TEST(MetricsRegistryTest, CounterIncrements) {
  obs::Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(5);
  EXPECT_EQ(counter.Value(), 6);
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
  obs::Counter counter;
  obs::Histogram histogram({1.0, 10.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(5.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  obs::Histogram::Data data = histogram.Snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(data.sum, 5.0 * kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotFindsByName) {
  obs::Counter counter;
  obs::Histogram histogram({1.0});
  counter.Increment(7);
  histogram.Observe(2.5);
  obs::MetricsSnapshot snapshot;
  snapshot.values = {CounterValue("c.one", counter),
                     HistogramValue("h.one", histogram)};
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.CounterValue("c.one"), 7);
  EXPECT_EQ(snapshot.CounterValue("c.absent"), 0);
  EXPECT_EQ(snapshot.CounterValue("h.one"), 0);  // not a counter
  const obs::MetricValue* found = snapshot.Find("h.one");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, obs::MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(found->histogram.sum, 2.5);
}

TEST(MetricsRegistryTest, DeltaSubtractsAndDropsZeroes) {
  obs::Counter active;
  obs::Counter idle;
  obs::Histogram histogram({1.0});
  auto snapshot = [&] {
    obs::MetricsSnapshot s;
    s.values = {CounterValue("c.active", active), CounterValue("c.idle", idle),
                HistogramValue("h.lat", histogram)};
    return s;
  };
  active.Increment(10);
  idle.Increment(3);
  histogram.Observe(0.5);
  obs::MetricsSnapshot start = snapshot();

  active.Increment(4);
  histogram.Observe(2.0);
  obs::MetricsSnapshot end = snapshot();

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
  obs::MetricsSnapshot start;
  obs::Counter counter;
  counter.Increment(9);
  obs::MetricsSnapshot end;
  end.values = {CounterValue("c.born_later", counter)};
  obs::MetricsSnapshot delta = obs::DeltaSnapshot(start, end);
  EXPECT_EQ(delta.CounterValue("c.born_later"), 9);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  obs::Counter counter;
  obs::Histogram histogram({10.0});
  counter.Increment(2);
  histogram.Observe(3.0);
  obs::MetricsSnapshot snapshot;
  snapshot.values = {CounterValue("c.n", counter),
                     HistogramValue("h.us", histogram)};
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.n\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);

  obs::MetricsSnapshot empty;
  EXPECT_EQ(empty.ToJson(), "{\"counters\": {}, \"histograms\": {}}");
}

}  // namespace
}  // namespace fastft
