// Descriptive statistics helpers shared across the library.
//
// The state representation (core/state.h) and the dataset sanitizer both
// rely on these summaries; they tolerate empty input and return zeros.

#pragma once

#include <cstddef>
#include <vector>

namespace fastft {

/// Seven-number descriptive summary of a numeric sample.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;

  /// Number of summary fields (the state-representation width unit).
  static constexpr int kNumFields = 7;

  /// Flattens to {mean, stddev, min, q25, median, q75, max}.
  std::vector<double> ToVector() const;
};

/// Computes the summary of `values`. Empty input yields all-zero summary.
Summary Summarize(const std::vector<double>& values);

double Mean(const std::vector<double>& values);
/// Population standard deviation (divides by n); 0 for fewer than 2 values.
double StdDev(const std::vector<double>& values);

/// Interpolated quantile, q in [0,1]. Sorts a copy of `values`.
double Quantile(std::vector<double> values, double q);

/// Cosine similarity of two equal-length vectors; 0 for zero vectors.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

}  // namespace fastft

