#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace fastft {
namespace obs {
namespace {

// fetch_add on atomic<double> is C++20 but spotty across standard
// libraries; a CAS loop is portable and the histograms are not contended
// enough for it to matter.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (current < value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

// JSON has no NaN/Infinity literals; clamp defensively.
void AppendNumber(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  out << buffer;
}

void AppendHistogramJson(std::ostringstream& out,
                         const Histogram::Data& data) {
  out << "{\"count\": " << data.count << ", \"sum\": ";
  AppendNumber(out, data.sum);
  out << ", \"max\": ";
  AppendNumber(out, data.max);
  out << ", \"buckets\": [";
  for (size_t b = 0; b < data.counts.size(); ++b) {
    if (b > 0) out << ", ";
    out << "{\"le\": ";
    if (b < data.upper_bounds.size()) {
      AppendNumber(out, data.upper_bounds[b]);
    } else {
      out << "\"+Inf\"";
    }
    out << ", \"count\": " << data.counts[b] << "}";
  }
  out << "]}";
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1) {
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    FASTFT_CHECK_LT(upper_bounds_[i - 1], upper_bounds_[i])
        << "histogram bounds must be strictly ascending";
  }
}

void Histogram::Observe(double value) {
  size_t bucket = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(),
                                   value) -
                  upper_bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

Histogram::Data Histogram::Snapshot() const {
  Data data;
  data.upper_bounds = upper_bounds_;
  data.counts.reserve(counts_.size());
  for (const std::atomic<int64_t>& c : counts_) {
    data.counts.push_back(c.load(std::memory_order_relaxed));
  }
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  return data;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double> kBuckets = {
      10.0,    25.0,    50.0,     100.0,    250.0,    500.0,   1000.0,
      2500.0,  5000.0,  10000.0,  25000.0,  50000.0,  100000.0,
      250000.0, 500000.0, 1000000.0};
  return kBuckets;
}

const MetricValue* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricValue& value : values) {
    if (value.name == name) return &value;
  }
  return nullptr;
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const MetricValue* value = Find(name);
  return value != nullptr && value->kind == MetricKind::kCounter
             ? value->counter
             : 0;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const MetricValue& value : values) {
    if (value.kind != MetricKind::kCounter) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"" << value.name << "\": " << value.counter;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const MetricValue& value : values) {
    if (value.kind != MetricKind::kHistogram) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"" << value.name << "\": ";
    AppendHistogramJson(out, value.histogram);
  }
  out << "}}";
  return out.str();
}

MetricsSnapshot DeltaSnapshot(const MetricsSnapshot& start,
                              const MetricsSnapshot& end) {
  MetricsSnapshot delta;
  for (const MetricValue& value : end.values) {
    const MetricValue* base = start.Find(value.name);
    MetricValue d = value;
    switch (value.kind) {
      case MetricKind::kCounter:
        if (base != nullptr) d.counter -= base->counter;
        if (d.counter == 0) continue;
        break;
      case MetricKind::kHistogram:
        if (base != nullptr &&
            base->histogram.counts.size() == d.histogram.counts.size()) {
          for (size_t b = 0; b < d.histogram.counts.size(); ++b) {
            d.histogram.counts[b] -= base->histogram.counts[b];
          }
          d.histogram.count -= base->histogram.count;
          d.histogram.sum -= base->histogram.sum;
          // max cannot be deltaed; the end-of-run max is still an upper
          // bound for the run and is reported as-is.
        }
        if (d.histogram.count == 0) continue;
        break;
    }
    delta.values.push_back(std::move(d));
  }
  return delta;
}

}  // namespace obs
}  // namespace fastft
