// Metrics — the fastft::obs counting layer.
//
// Named counters and fixed-bucket histograms, and the MetricsSnapshot that
// copies them out. The shared thread pool owns its three (pool.tasks,
// pool.queue_wait_us, pool.task_run_us; common::PoolMetricsSnapshot). Work
// that belongs to one engine run is counted by the run itself (its
// Evaluator), so overlapping runs cannot count each other's work.
// MetricsSnapshot is also the shape of EngineResult::metrics: the run's own
// counts followed by the pool's delta over the run, which the run report
// renders under "runtime".
//
// All mutation paths are lock-free atomics, safe to call from pool workers.
// Counting never changes any computation.
//
// Metric naming scheme: "<subsystem>.<metric>[_<unit>]", e.g.
// "pool.tasks", "pool.queue_wait_us", "evaluator.folds".

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fastft {
namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: counts per upper bound plus an implicit +Inf
/// overflow bucket, with total count / sum / max.
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending; a value lands in the first
  /// bucket whose bound is >= value, or the overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  struct Data {
    std::vector<double> upper_bounds;
    std::vector<int64_t> counts;  // upper_bounds.size() + 1 (overflow last)
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  Data Snapshot() const;

 private:
  const std::vector<double> upper_bounds_;
  std::vector<std::atomic<int64_t>> counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Shared exponential bucket bounds (microseconds) for latency histograms.
const std::vector<double>& LatencyBucketsUs();

enum class MetricKind { kCounter, kHistogram };

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t counter = 0;
  Histogram::Data histogram;
};

/// Point-in-time (or delta, see DeltaSnapshot) copy of a set of metrics.
struct MetricsSnapshot {
  std::vector<MetricValue> values;  // counters, then histograms

  bool empty() const { return values.empty(); }
  /// First metric named `name`, or nullptr.
  const MetricValue* Find(const std::string& name) const;
  /// Convenience: counter value of `name` (0 when absent).
  int64_t CounterValue(const std::string& name) const;
  /// One JSON object: {"counters": {...}, "histograms": {...}}.
  /// Self-contained, no external dependency.
  std::string ToJson() const;
};

/// end - start for counters and histogram counts/sums (metrics absent from
/// `start` pass through whole); histogram maxima report their `end`
/// values. Zero-delta counters and empty histograms are dropped, so a
/// run's snapshot only lists subsystems it actually touched.
MetricsSnapshot DeltaSnapshot(const MetricsSnapshot& start,
                              const MetricsSnapshot& end);

}  // namespace obs
}  // namespace fastft
