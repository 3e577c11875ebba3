#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd_kernels.h"

namespace fastft {
namespace {

/// Gini impurity of class counts over `total` instances. Each count converts
/// to double exactly, so the result is the Gini of the count doubles.
double GiniFromCounts(const std::vector<int64_t>& counts, double total) {
  if (total <= 0) return 0.0;
  double gini = 1.0;
  for (int64_t c : counts) {
    double p = static_cast<double>(c) / total;
    gini -= p * p;
  }
  return gini;
}

/// Stable two-way partition of items[0, count): items with goes_left(item)
/// first, each side in its original order. Branch-free — every item is
/// written to both outputs and only its own side's cursor advances. The left
/// side compacts in place (its cursor never passes the read cursor); the
/// right side goes through `scratch` and is copied in behind it.
template <typename GoesLeft>
void StablePartition(int* items, int count, int* scratch,
                     const GoesLeft& goes_left) {
  int left = 0;
  int right = 0;
  for (int i = 0; i < count; ++i) {
    const int item = items[i];
    const int side = goes_left(item);
    items[left] = item;
    scratch[right] = item;
    left += side;
    right += 1 - side;
  }
  std::copy(scratch, scratch + right, items + left);
}

/// Copies of a row written unconditionally when expanding a presorted order
/// by sample multiplicity (see DecisionTree::Fit).
constexpr int kExpandCopies = 4;

/// The classification scan skips a position only in nodes up to this many
/// instances; larger nodes evaluate every position. Up to it the integer
/// products of the skip test fit in int64 (N <= n^3/4 <= 2^58), and a gain
/// has at most n nonzero classes, so its rounding error stays far inside
/// kGainMargin (see BuildNode).
constexpr int kMaxPrunedCount = 1 << 20;

/// How far below the best gain a position's exact gain must lie to be
/// skipped without its floating-point gain.
constexpr double kGainMargin = 0x1p-30;

}  // namespace

PresortedData::PresortedData(const Rows& x, const std::vector<double>& y)
    : num_rows_(static_cast<int>(x.size())),
      num_features_(x.empty() ? 0 : static_cast<int>(x[0].size())),
      labels_(y) {
  FASTFT_CHECK(!x.empty());
  FASTFT_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  columns_.resize(n * static_cast<size_t>(num_features_));
  for (size_t r = 0; r < n; ++r) {
    FASTFT_CHECK_EQ(x[r].size(), static_cast<size_t>(num_features_));
    for (int f = 0; f < num_features_; ++f) columns_[f * n + r] = x[r][f];
  }
  SortColumns();
}

PresortedData::PresortedData(const DataFrame& x, const std::vector<double>& y)
    : num_rows_(x.NumRows()), num_features_(x.NumCols()), labels_(y) {
  FASTFT_CHECK_EQ(static_cast<size_t>(num_rows_), y.size());
  const size_t n = static_cast<size_t>(num_rows_);
  columns_.resize(n * static_cast<size_t>(num_features_));
  for (int f = 0; f < num_features_; ++f) {
    const std::vector<double>& col = x.Col(f);
    std::copy(col.begin(), col.end(), columns_.begin() + f * n);
  }
  SortColumns();
}

PresortedData::PresortedData(const PresortedData& full,
                             const std::vector<int>& rows)
    : num_rows_(static_cast<int>(rows.size())),
      num_features_(full.num_features_) {
  const size_t n = full.num_rows_;
  const size_t m = rows.size();
  // Local index of each full row, -1 when the row is not in the view.
  std::vector<int> local(n, -1);
  for (size_t i = 0; i < m; ++i) {
    const int row = rows[i];
    FASTFT_CHECK(row >= 0 && static_cast<size_t>(row) < n)
        << "view row " << row << " out of range";
    FASTFT_CHECK(i == 0 || rows[i - 1] < row)
        << "view rows must be strictly ascending";
    local[row] = static_cast<int>(i);
  }
  labels_.resize(m);
  for (size_t i = 0; i < m; ++i) labels_[i] = full.labels_[rows[i]];
  // Filtering is branch-free: every full row's local index is written and
  // the cursor advances only for rows in the view. A feature's overhang
  // lands in the next feature's list before that list is written, or in
  // one slot of slack dropped at the end.
  columns_.resize(m * static_cast<size_t>(num_features_));
  order_.resize(m * static_cast<size_t>(num_features_) + 1);
  for (int f = 0; f < num_features_; ++f) {
    const double* from = &full.columns_[f * n];
    double* column = &columns_[f * m];
    for (size_t i = 0; i < m; ++i) column[i] = from[rows[i]];
    const int* full_order = &full.order_[f * n];
    int* out = &order_[f * m];
    for (size_t i = 0; i < n; ++i) {
      const int j = local[full_order[i]];
      *out = j;
      out += j >= 0;
    }
  }
  order_.pop_back();
}

void PresortedData::SortColumns() {
  // Ties in value sort by label, so a node's scan visits (value, label)
  // pairs in exactly the order a per-node sort of those pairs would. Sorting
  // on value alone and then ordering each (usually single-row) run of equal
  // values by (label, row) keeps the comparator of the big sort cheap.
  struct Key {
    double value;
    int row;
  };
  const size_t n = static_cast<size_t>(num_rows_);
  const std::vector<double>& y = labels_;
  order_.resize(n * static_cast<size_t>(num_features_));
  std::vector<Key> keys(n);
  auto by_label = [&y](const Key& a, const Key& b) {
    return y[a.row] != y[b.row] ? y[a.row] < y[b.row] : a.row < b.row;
  };
  for (int f = 0; f < num_features_; ++f) {
    const size_t base = f * n;
    for (size_t r = 0; r < n; ++r) {
      keys[r] = {columns_[base + r], static_cast<int>(r)};
    }
    std::sort(keys.begin(), keys.end(),
              [](const Key& a, const Key& b) { return a.value < b.value; });
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      for (end = begin + 1; end < n && keys[end].value == keys[begin].value;)
        ++end;
      if (end - begin > 1) {
        std::sort(keys.begin() + begin, keys.begin() + end, by_label);
      }
    }
    for (size_t i = 0; i < n; ++i) order_[base + i] = keys[i].row;
  }
}

/// Per-fit state. Every list holds one entry per sample instance; a node owns
/// the segment [begin, end) of each, and a split stably partitions that
/// segment of every list, so each child's segment stays in its parent's
/// order: bootstrap order for `sample`, (value, label) order for `sorted`.
struct DecisionTree::Workspace {
  Workspace(const PresortedData& d, const std::vector<int>& s)
      : data(d),
        size(static_cast<int>(s.size())),
        sample(s),
        sorted(static_cast<size_t>(d.num_features_) * s.size() +
               kExpandCopies),
        scratch(s.size()),
        goes_left(d.num_rows_),
        values(s.size()),
        labels(s.size()) {}

  const PresortedData& data;
  const int size;
  /// Rows, in bootstrap order.
  std::vector<int> sample;
  /// Feature-major [feature * size + k]: rows in the feature's presorted
  /// order, each repeated by its sample multiplicity.
  std::vector<int> sorted;
  std::vector<int> scratch;
  /// Side of the current split, by row.
  std::vector<char> goes_left;
  /// A node's values and labels gathered contiguous for the scan.
  std::vector<double> values;
  std::vector<double> labels;
  /// Classification class counts of the node and of the scan's two sides.
  std::vector<int64_t> total_n;
  std::vector<int64_t> left_n;
  std::vector<int64_t> right_n;
};

void DecisionTree::Fit(const Rows& x, const std::vector<double>& y) {
  const PresortedData data(x, y);
  std::vector<int> sample(x.size());
  std::iota(sample.begin(), sample.end(), 0);
  Fit(data, sample);
}

void DecisionTree::Fit(const PresortedData& data,
                       const std::vector<int>& sample) {
  FASTFT_CHECK(!sample.empty());
  const int n = data.num_rows_;
  const int size = static_cast<int>(sample.size());
  num_features_ = data.num_features_;
  nodes_.clear();
  importance_.assign(num_features_, 0.0);
  std::vector<int> multiplicity(n, 0);
  int max_label = 0;
  for (int r : sample) {
    FASTFT_CHECK(r >= 0 && r < n) << "sample row " << r << " out of range";
    ++multiplicity[r];
    max_label = std::max(max_label, static_cast<int>(data.labels_[r]));
  }
  num_classes_ = config_.regression ? 0 : max_label + 1;

  // Expand each feature's shared order by sample multiplicity. Bootstrap
  // multiplicities are small, so every row is stored kExpandCopies times
  // unconditionally and the cursor advances by its multiplicity — no
  // data-dependent branch in the common case. The overhang lands in the next
  // feature's list before that list is written, or in the slack at the end.
  Workspace ws(data, sample);
  for (int f = 0; f < num_features_; ++f) {
    const int* order = &data.order_[static_cast<size_t>(f) * n];
    int* out = &ws.sorted[static_cast<size_t>(f) * size];
    for (int i = 0; i < n; ++i) {
      const int row = order[i];
      const int copies = multiplicity[row];
      if (copies > kExpandCopies) {
        std::fill_n(out, copies, row);
      } else {
        for (int c = 0; c < kExpandCopies; ++c) out[c] = row;
      }
      out += copies;
    }
  }

  Rng rng(config_.seed);
  BuildNode(ws, 0, size, 0, &rng);
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0) {
    for (double& v : importance_) v /= total;
  }
}

int DecisionTree::BuildNode(Workspace& ws, int begin, int end, int depth,
                            Rng* rng) {
  const PresortedData& data = ws.data;
  const size_t num_rows = static_cast<size_t>(data.num_rows_);
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  const int count = end - begin;
  const double n = static_cast<double>(count);
  int* rows = ws.sample.data() + begin;
  double* values = ws.values.data();
  double* labels = ws.labels.data();

  // Node value and impurity, reduced in bootstrap order. The contiguous
  // label gather lets the sum/sumsq run through the lane-split SIMD kernel.
  double node_impurity = 0.0;
  if (config_.regression) {
    for (int i = 0; i < count; ++i) labels[i] = data.labels_[rows[i]];
    double sum = 0.0, sumsq = 0.0;
    simd::SumAndSumSq(labels, count, &sum, &sumsq);
    double mean = sum / n;
    node_impurity = std::max(0.0, sumsq / n - mean * mean);
    nodes_[node_index].value = {mean};
  } else {
    ws.total_n.assign(num_classes_, 0);
    for (int i = 0; i < count; ++i) {
      ++ws.total_n[static_cast<int>(data.labels_[rows[i]])];
    }
    node_impurity = GiniFromCounts(ws.total_n, n);
    std::vector<double>& value = nodes_[node_index].value;
    value.resize(num_classes_);
    for (int c = 0; c < num_classes_; ++c) {
      value[c] = static_cast<double>(ws.total_n[c]) / n;
    }
  }

  const bool can_split = depth < config_.max_depth &&
                         count >= 2 * config_.min_samples_leaf &&
                         node_impurity > 1e-12;
  if (!can_split) return node_index;

  // Candidate features.
  std::vector<int> candidates;
  if (config_.max_features > 0 && config_.max_features < num_features_) {
    candidates = rng->SampleWithoutReplacement(num_features_,
                                               config_.max_features);
  } else {
    candidates.resize(num_features_);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;

  for (int feature : candidates) {
    const int* sorted =
        &ws.sorted[static_cast<size_t>(feature) * ws.size + begin];
    const double* column = &data.columns_[feature * num_rows];
    if (column[sorted[0]] == column[sorted[count - 1]]) continue;
    for (int i = 0; i < count; ++i) {
      values[i] = column[sorted[i]];
      labels[i] = data.labels_[sorted[i]];
    }

    if (config_.regression) {
      // Split-scan totals in sorted order (the reduction is contiguous and
      // SIMD-friendly); the prefix scan itself stays sequential (each step
      // depends on the last).
      double left_sum = 0.0, left_sumsq = 0.0;
      double total_sum = 0.0, total_sumsq = 0.0;
      simd::SumAndSumSq(labels, count, &total_sum, &total_sumsq);
      for (int i = 0; i + 1 < count; ++i) {
        left_sum += labels[i];
        left_sumsq += labels[i] * labels[i];
        if (values[i] == values[i + 1]) continue;
        double nl = static_cast<double>(i + 1);
        double nr = n - nl;
        if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
          continue;
        }
        double ml = left_sum / nl;
        double mr = (total_sum - left_sum) / nr;
        double vl = std::max(0.0, left_sumsq / nl - ml * ml);
        double vr = std::max(0.0, (total_sumsq - left_sumsq) / nr - mr * mr);
        double gain = node_impurity - (nl / n) * vl - (nr / n) * vr;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (values[i] + values[i + 1]);
        }
      }
    } else {
      // Positions whose gain cannot beat best_gain are skipped on integer
      // counts (DESIGN.md, "Tree fitting"). With l_c, r_c the side counts,
      // the exact gain is I - 1 + Q/n, where Q = Σl²/nl + Σr²/nr = N/D for
      // N = nr·Σl² + nl·Σr² and D = nl·nr, and both sums of squares update
      // exactly as one instance moves left. N <= bound·D means the exact
      // gain is at most best_gain - kGainMargin (up to a few ulp); the
      // floating-point gain errs from it by about (3C + 10)·2^-53 for C
      // nonzero classes, far less, so a skipped position could not have
      // passed `gain > best_gain`. Every other position computes that gain
      // exactly as before.
      const bool prune = count <= kMaxPrunedCount;
      auto skip_bound = [&] {
        return n * (best_gain - node_impurity + 1.0) - n * kGainMargin;
      };
      double bound = skip_bound();
      ws.left_n.assign(num_classes_, 0);
      ws.right_n = ws.total_n;
      int64_t* left = ws.left_n.data();
      int64_t* right = ws.right_n.data();
      int64_t left_sq = 0;
      int64_t right_sq = 0;
      for (int64_t c : ws.total_n) right_sq += c * c;
      for (int i = 0; i + 1 < count; ++i) {
        const int cls = static_cast<int>(labels[i]);
        left_sq += 2 * left[cls] + 1;
        right_sq -= 2 * right[cls] - 1;
        ++left[cls];
        --right[cls];
        if (values[i] == values[i + 1]) continue;
        const int64_t left_size = i + 1;
        const int64_t right_size = count - left_size;
        if (left_size < config_.min_samples_leaf ||
            right_size < config_.min_samples_leaf) {
          continue;
        }
        if (prune &&
            static_cast<double>(right_size * left_sq + left_size * right_sq) <=
                bound * static_cast<double>(left_size * right_size)) {
          continue;
        }
        double nl = static_cast<double>(left_size);
        double nr = n - nl;
        double gain = node_impurity -
                      (nl / n) * GiniFromCounts(ws.left_n, nl) -
                      (nr / n) * GiniFromCounts(ws.right_n, nr);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (values[i] + values[i + 1]);
          bound = skip_bound();
        }
      }
    }
  }

  if (best_feature < 0) return node_index;

  const double* column = &data.columns_[best_feature * num_rows];
  char* goes_left = ws.goes_left.data();
  int left_count = 0;
  for (int i = 0; i < count; ++i) {
    const char left = column[rows[i]] <= best_threshold;
    goes_left[rows[i]] = left;
    left_count += left;
  }
  if (left_count == 0 || left_count == count) return node_index;

  importance_[best_feature] += n * best_gain;

  auto is_left = [goes_left](int row) { return goes_left[row]; };
  StablePartition(rows, count, ws.scratch.data(), is_left);
  // Children at max_depth are leaves: they read only `sample`.
  if (depth + 1 < config_.max_depth) {
    for (int f = 0; f < num_features_; ++f) {
      StablePartition(&ws.sorted[static_cast<size_t>(f) * ws.size + begin],
                      count, ws.scratch.data(), is_left);
    }
  }

  const int mid = begin + left_count;
  int left = BuildNode(ws, begin, mid, depth + 1, rng);
  int right = BuildNode(ws, mid, end, depth + 1, rng);
  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  nodes_[node_index].is_leaf = false;
  return node_index;
}

const DecisionTree::Node& DecisionTree::Descend(
    const std::vector<double>& row) const {
  FASTFT_CHECK(!nodes_.empty());
  int index = 0;
  while (!nodes_[index].is_leaf) {
    const Node& node = nodes_[index];
    index = row[node.feature] <= node.threshold ? node.left : node.right;
  }
  return nodes_[index];
}

const std::vector<double>& DecisionTree::PredictProba(
    const std::vector<double>& row) const {
  FASTFT_CHECK(!config_.regression);
  return Descend(row).value;
}

double DecisionTree::PredictOne(const std::vector<double>& row) const {
  const Node& leaf = Descend(row);
  if (config_.regression) return leaf.value[0];
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (leaf.value[c] > leaf.value[best]) best = c;
  }
  return static_cast<double>(best);
}

std::vector<double> DecisionTree::Predict(const Rows& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(PredictOne(row));
  return out;
}

std::vector<double> DecisionTree::PredictScore(const Rows& x) const {
  if (config_.regression) return Predict(x);
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) {
    const Node& leaf = Descend(row);
    out.push_back(num_classes_ >= 2 ? leaf.value[1] : 0.0);
  }
  return out;
}

}  // namespace fastft
