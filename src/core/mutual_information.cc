#include "core/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fastft {

std::vector<int> QuantileBin(const std::vector<double>& values, int bins) {
  return QuantileBin(values, AscendingOrder(values), bins);
}

std::vector<size_t> AscendingOrder(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  return order;
}

std::vector<int> QuantileBin(const std::vector<double>& values,
                             const std::vector<size_t>& order, int bins) {
  FASTFT_CHECK_GE(bins, 2);
  FASTFT_CHECK_EQ(order.size(), values.size());
  const size_t n = values.size();
  std::vector<int> out(n, 0);
  if (n == 0) return out;
  // Equal-frequency bins; identical values always share a bin. A bin closes
  // as soon as it has reached its quota *and* the value changes — this keeps
  // low-cardinality columns (e.g. binary features) multi-binned instead of
  // collapsing into one bin.
  int current_bin = 0;
  size_t per_bin = std::max<size_t>(1, n / static_cast<size_t>(bins));
  for (size_t rank = 0; rank < n; ++rank) {
    if (rank > 0) {
      bool due = rank >= (static_cast<size_t>(current_bin) + 1) * per_bin &&
                 current_bin < bins - 1;
      bool tie = values[order[rank]] == values[order[rank - 1]];
      if (due && !tie) ++current_bin;
    }
    out[order[rank]] = current_bin;
  }
  return out;
}

std::vector<int> BinCounts(const std::vector<int>& binned) {
  // Bin ids are small non-negative integers (quantile bins or class labels),
  // so dense counting beats associative containers.
  int max_bin = 0;
  for (int v : binned) {
    FASTFT_CHECK_GE(v, 0);
    max_bin = std::max(max_bin, v);
  }
  std::vector<int> counts(static_cast<size_t>(max_bin) + 1, 0);
  for (int v : binned) ++counts[v];
  return counts;
}

double DiscreteMutualInformation(const std::vector<int>& a,
                                 const std::vector<int>& b) {
  FASTFT_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  return CountedMutualInformation(a, BinCounts(a), b, BinCounts(b));
}

double CountedMutualInformation(const std::vector<int>& a,
                                const std::vector<int>& count_a,
                                const std::vector<int>& b,
                                const std::vector<int>& count_b) {
  FASTFT_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  const double n = static_cast<double>(a.size());
  const int ka = static_cast<int>(count_a.size());
  const int kb = static_cast<int>(count_b.size());
  const size_t cells = static_cast<size_t>(ka) * static_cast<size_t>(kb);
  int stack_joint[kMaxStackBins * kMaxStackBins];
  std::vector<int> heap_joint;
  int* joint = stack_joint;
  if (ka > kMaxStackBins || kb > kMaxStackBins) {
    heap_joint.resize(cells);
    joint = heap_joint.data();
  }
  std::fill(joint, joint + cells, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    ++joint[static_cast<size_t>(a[i]) * kb + b[i]];
  }
  // Integer counts convert to the doubles that summing 1.0 per entry gives,
  // so the terms, their order and the zero skips fix every bit of the sum.
  double mi = 0.0;
  for (int x = 0; x < ka; ++x) {
    if (count_a[x] == 0) continue;
    const double px = static_cast<double>(count_a[x]);
    for (int y = 0; y < kb; ++y) {
      const double pxy =
          static_cast<double>(joint[static_cast<size_t>(x) * kb + y]);
      if (pxy == 0.0) continue;
      const double py = static_cast<double>(count_b[y]);
      mi += (pxy / n) * std::log(pxy * n / (px * py));
    }
  }
  return std::max(0.0, mi);
}

double EstimateMI(const std::vector<double>& a, const std::vector<double>& b,
                  int bins) {
  return DiscreteMutualInformation(QuantileBin(a, bins), QuantileBin(b, bins));
}

std::vector<int> LabelCodes(const std::vector<double>& labels, TaskType task,
                            int bins) {
  if (task == TaskType::kRegression) return QuantileBin(labels, bins);
  std::vector<int> codes;
  codes.reserve(labels.size());
  for (double y : labels) codes.push_back(static_cast<int>(y));
  return codes;
}

double EstimateMIWithLabel(const std::vector<double>& column,
                           const std::vector<double>& labels, TaskType task,
                           int bins) {
  return DiscreteMutualInformation(QuantileBin(column, bins),
                                   LabelCodes(labels, task, bins));
}

std::vector<double> FeatureRelevance(const DataFrame& frame,
                                     const std::vector<double>& labels,
                                     TaskType task, int bins) {
  std::vector<double> out(frame.NumCols());
  for (int c = 0; c < frame.NumCols(); ++c) {
    out[c] = EstimateMIWithLabel(frame.Col(c), labels, task, bins);
  }
  return out;
}

std::vector<int> TopKByRelevance(const DataFrame& frame,
                                 const std::vector<double>& labels,
                                 TaskType task, int k, int bins) {
  std::vector<double> relevance = FeatureRelevance(frame, labels, task, bins);
  std::vector<int> indices(frame.NumCols());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
    return relevance[a] > relevance[b];
  });
  if (k < static_cast<int>(indices.size())) indices.resize(k);
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace fastft
