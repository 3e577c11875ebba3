#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fastft {

std::vector<double> Summary::ToVector() const {
  return {mean, stddev, min, q25, median, q75, max};
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size());
}

}  // namespace

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  FASTFT_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.mean = Mean(values);
  s.stddev = StdDev(values);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  auto at = [&](double q) {
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  s.q25 = at(0.25);
  s.median = at(0.5);
  s.q75 = at(0.75);
  return s;
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  FASTFT_CHECK_EQ(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 1e-300 || nb <= 1e-300) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace fastft
