// Property test: the presorted-partition CART fitter against a reference.
//
// `reference::Tree` below is the straightforward CART fitter that gathers
// (value, label) pairs and sorts them at every node, and `reference::Forest`
// the forest that materializes each bootstrap as a private row copy. They are
// kept here, test-only, as the oracle: over hundreds of seeded configurations
// the library's DecisionTree and RandomForest must reproduce their
// predictions, scores and importances bit for bit. The reference scans every
// split position, so it is also the oracle for the library's scan, which
// skips the positions that cannot beat the best gain.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd_kernels.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace fastft {
namespace {
namespace reference {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0.0;
  double gini = 1.0;
  for (double c : counts) {
    double p = c / total;
    gini -= p * p;
  }
  return gini;
}

class Tree {
 public:
  explicit Tree(TreeConfig config) : config_(config) {}

  void Fit(const Rows& x, const std::vector<double>& y) {
    num_features_ = static_cast<int>(x[0].size());
    nodes_.clear();
    importance_.assign(num_features_, 0.0);
    if (config_.regression) {
      num_classes_ = 0;
    } else {
      int max_label = 0;
      for (double v : y) max_label = std::max(max_label, static_cast<int>(v));
      num_classes_ = max_label + 1;
    }
    std::vector<int> rows(x.size());
    std::iota(rows.begin(), rows.end(), 0);
    Rng rng(config_.seed);
    BuildNode(x, y, rows, 0, &rng);
    double total = 0.0;
    for (double v : importance_) total += v;
    if (total > 0) {
      for (double& v : importance_) v /= total;
    }
  }

  const std::vector<double>& Leaf(const std::vector<double>& row) const {
    int index = 0;
    while (!nodes_[index].is_leaf) {
      const Node& node = nodes_[index];
      index = row[node.feature] <= node.threshold ? node.left : node.right;
    }
    return nodes_[index].value;
  }

  double PredictOne(const std::vector<double>& row) const {
    const std::vector<double>& value = Leaf(row);
    if (config_.regression) return value[0];
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (value[c] > value[best]) best = c;
    }
    return static_cast<double>(best);
  }

  double Score(const std::vector<double>& row) const {
    if (config_.regression) return PredictOne(row);
    return num_classes_ >= 2 ? Leaf(row)[1] : 0.0;
  }

  const std::vector<double>& importance() const { return importance_; }
  int num_classes() const { return num_classes_; }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    bool is_leaf = true;
    std::vector<double> value;
  };

  int BuildNode(const Rows& x, const std::vector<double>& y,
                std::vector<int>& rows, int depth, Rng* rng) {
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    const double n = static_cast<double>(rows.size());

    double node_impurity = 0.0;
    if (config_.regression) {
      std::vector<double> labels;
      for (int r : rows) labels.push_back(y[r]);
      double sum = 0.0, sumsq = 0.0;
      simd::SumAndSumSq(labels.data(), static_cast<int>(labels.size()), &sum,
                        &sumsq);
      double mean = sum / n;
      node_impurity = std::max(0.0, sumsq / n - mean * mean);
      nodes_[node_index].value = {mean};
    } else {
      std::vector<double> counts(num_classes_, 0.0);
      for (int r : rows) counts[static_cast<int>(y[r])] += 1.0;
      node_impurity = GiniFromCounts(counts, n);
      for (double& c : counts) c /= n;
      nodes_[node_index].value = std::move(counts);
    }

    const bool can_split = depth < config_.max_depth &&
                           static_cast<int>(rows.size()) >=
                               2 * config_.min_samples_leaf &&
                           node_impurity > 1e-12;
    if (!can_split) return node_index;

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
    std::vector<std::pair<double, double>> pairs;  // (feature value, label)
    std::vector<double> sorted_labels;
    for (int feature : candidates) {
      pairs.clear();
      for (int r : rows) pairs.emplace_back(x[r][feature], y[r]);
      std::sort(pairs.begin(), pairs.end());
      if (pairs.front().first == pairs.back().first) continue;

      if (config_.regression) {
        sorted_labels.clear();
        for (const auto& [v, label] : pairs) sorted_labels.push_back(label);
        double left_sum = 0.0, left_sumsq = 0.0;
        double total_sum = 0.0, total_sumsq = 0.0;
        simd::SumAndSumSq(sorted_labels.data(),
                          static_cast<int>(sorted_labels.size()), &total_sum,
                          &total_sumsq);
        for (size_t i = 0; i + 1 < pairs.size(); ++i) {
          left_sum += pairs[i].second;
          left_sumsq += pairs[i].second * pairs[i].second;
          if (pairs[i].first == pairs[i + 1].first) continue;
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
            best_threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
          }
        }
      } else {
        std::vector<double> left_counts(num_classes_, 0.0);
        std::vector<double> total_counts(num_classes_, 0.0);
        for (const auto& [v, label] : pairs) {
          total_counts[static_cast<int>(label)] += 1.0;
        }
        std::vector<double> right_counts = total_counts;
        for (size_t i = 0; i + 1 < pairs.size(); ++i) {
          int cls = static_cast<int>(pairs[i].second);
          left_counts[cls] += 1.0;
          right_counts[cls] -= 1.0;
          if (pairs[i].first == pairs[i + 1].first) continue;
          double nl = static_cast<double>(i + 1);
          double nr = n - nl;
          if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
            continue;
          }
          double gain = node_impurity -
                        (nl / n) * GiniFromCounts(left_counts, nl) -
                        (nr / n) * GiniFromCounts(right_counts, nr);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = feature;
            best_threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
          }
        }
      }
    }

    if (best_feature < 0) return node_index;

    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
      (x[r][best_feature] <= best_threshold ? left_rows : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return node_index;

    importance_[best_feature] += n * best_gain;
    int left = BuildNode(x, y, left_rows, depth + 1, rng);
    int right = BuildNode(x, y, right_rows, depth + 1, rng);
    nodes_[node_index].feature = best_feature;
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    nodes_[node_index].is_leaf = false;
    return node_index;
  }

  TreeConfig config_;
  int num_classes_ = 0;
  int num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

/// Bagging with one materialized row copy per bootstrap, serially.
class Forest {
 public:
  explicit Forest(ForestConfig config) : config_(config) {}

  /// Returns how many bootstraps needed the injected positive sample.
  int Fit(const Rows& x, const std::vector<double>& y) {
    const int num_features = static_cast<int>(x[0].size());
    if (!config_.regression) {
      int max_label = 0;
      for (double v : y) max_label = std::max(max_label, static_cast<int>(v));
      num_classes_ = max_label + 1;
    }
    int per_split = config_.max_features;
    if (per_split <= 0) {
      per_split = std::max(
          1, static_cast<int>(std::sqrt(static_cast<double>(num_features))));
    }
    Rng rng(config_.seed);
    const int n = static_cast<int>(x.size());
    const int boot_n =
        std::max(1, static_cast<int>(config_.bootstrap_fraction * n));
    std::vector<std::pair<Rows, std::vector<double>>> bootstraps(
        config_.num_trees);
    int injected = 0;
    for (auto& [bx, by] : bootstraps) {
      bool has_positive = false;
      for (int i = 0; i < boot_n; ++i) {
        int r = rng.UniformInt(n);
        bx.push_back(x[r]);
        by.push_back(y[r]);
        has_positive |= (y[r] > 0.5);
      }
      if (!config_.regression && !has_positive) {
        for (int r = 0; r < n; ++r) {
          if (y[r] > 0.5) {
            bx.push_back(x[r]);
            by.push_back(y[r]);
            ++injected;
            break;
          }
        }
      }
    }
    importance_.assign(num_features, 0.0);
    for (int t = 0; t < config_.num_trees; ++t) {
      TreeConfig tc;
      tc.regression = config_.regression;
      tc.max_depth = config_.max_depth;
      tc.min_samples_leaf = config_.min_samples_leaf;
      tc.max_features = per_split;
      tc.seed = DeriveSeed(config_.seed, static_cast<uint64_t>(t) + 1);
      trees_.emplace_back(tc);
      trees_.back().Fit(bootstraps[t].first, bootstraps[t].second);
      num_classes_ = std::max(num_classes_, trees_.back().num_classes());
      const std::vector<double>& ti = trees_.back().importance();
      for (size_t f = 0; f < ti.size(); ++f) importance_[f] += ti[f];
    }
    double total = 0.0;
    for (double v : importance_) total += v;
    if (total > 0) {
      for (double& v : importance_) v /= total;
    }
    return injected;
  }

  std::vector<double> Proba(const std::vector<double>& row) const {
    std::vector<double> probs(num_classes_, 0.0);
    for (const Tree& tree : trees_) {
      std::vector<double> p = tree.Leaf(row);
      for (size_t c = 0; c < p.size(); ++c) probs[c] += p[c];
    }
    for (double& p : probs) p /= static_cast<double>(trees_.size());
    return probs;
  }

  double PredictOne(const std::vector<double>& row) const {
    if (config_.regression) {
      double sum = 0.0;
      for (const Tree& tree : trees_) sum += tree.PredictOne(row);
      return sum / static_cast<double>(trees_.size());
    }
    std::vector<double> probs = Proba(row);
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (probs[c] > probs[best]) best = c;
    }
    return static_cast<double>(best);
  }

  double Score(const std::vector<double>& row) const {
    if (config_.regression) return PredictOne(row);
    std::vector<double> probs = Proba(row);
    return probs.size() >= 2 ? probs[1] : 0.0;
  }

  const std::vector<double>& importance() const { return importance_; }

 private:
  ForestConfig config_;
  int num_classes_ = 0;
  std::vector<Tree> trees_;
  std::vector<double> importance_;
};

}  // namespace reference

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits;
  for (double d : v) bits.push_back(std::bit_cast<uint64_t>(d));
  return bits;
}

/// One seeded training set. Columns are drawn independently from three
/// shapes — a coarse grid (heavy ties, many of them straddling the chosen
/// thresholds), a constant, or a continuous draw — and labels are classes
/// 0..k-1 or, for regression, a coarse grid or a continuous draw.
struct Case {
  Rows x;
  std::vector<double> y;
  Rows probes;
  bool regression = false;
  int max_depth = 6;
  int min_samples_leaf = 2;
  int max_features = 0;
  int num_features = 0;
};

Case MakeCase(uint64_t seed) {
  Rng rng(seed);
  Case c;
  const int n = 4 + rng.UniformInt(90);
  c.num_features = 1 + rng.UniformInt(7);
  const int task = static_cast<int>(seed % 4);  // binary, binary, 3+, regr.
  c.regression = task == 3;
  const int classes = task == 2 ? 3 + rng.UniformInt(2) : 2;
  const bool coarse_labels = rng.Uniform() < 0.5;
  const bool rare_positive = !c.regression && rng.Uniform() < 0.25;
  std::vector<int> shape(c.num_features);
  for (int& s : shape) s = rng.UniformInt(5);  // 0-2 grid, 3 const, 4 cont.
  c.x.assign(n, std::vector<double>(c.num_features));
  for (int r = 0; r < n; ++r) {
    for (int f = 0; f < c.num_features; ++f) {
      switch (shape[f]) {
        case 3:
          c.x[r][f] = 1.5;
          break;
        case 4:
          c.x[r][f] = rng.Normal();
          break;
        default:
          c.x[r][f] = 0.5 * rng.UniformInt(2 + shape[f] * 2);
      }
    }
    if (c.regression) {
      c.y.push_back(coarse_labels ? static_cast<double>(rng.UniformInt(4))
                                  : c.x[r][0] + rng.Normal(0.0, 0.5));
    } else if (rare_positive) {
      c.y.push_back(r == n / 2 ? 1.0 : 0.0);
    } else {
      // Labels follow feature 0 with noise, so splits are informative but
      // tie groups still mix labels.
      const int signal = static_cast<int>(std::fabs(c.x[r][0]) * 2.0) % classes;
      c.y.push_back(rng.Uniform() < 0.7 ? signal : rng.UniformInt(classes));
    }
  }
  c.probes = c.x;
  for (int p = 0; p < 16; ++p) {
    std::vector<double> probe(c.num_features);
    for (double& v : probe) v = 0.25 * rng.UniformInt(12) - 0.5;
    c.probes.push_back(probe);
  }
  const int depths[] = {1, 6};
  const int leaves[] = {1, 2, 25};
  const int features[] = {0, 1, c.num_features, c.num_features + 2};
  c.max_depth = depths[rng.UniformInt(2)];
  c.min_samples_leaf = leaves[rng.UniformInt(3)];
  c.max_features = features[rng.UniformInt(4)];
  return c;
}

/// A larger case for the pruned classification scan: n in the hundreds,
/// 3-4 classes, and feature 0 repeated twice — a duplicate, which ties it at
/// every split so the first feature must win, and a mirror (x and -x), whose
/// swapped sides can round its gain an ulp either way of the original's.
Case MakeWideCase(uint64_t seed) {
  Rng rng(seed);
  Case c;
  const int n = 200 + rng.UniformInt(500);
  const int base_features = 1 + rng.UniformInt(5);
  c.num_features = base_features + 2;
  const int classes = 3 + rng.UniformInt(2);
  std::vector<int> shape(base_features);
  for (int& s : shape) s = rng.UniformInt(4);  // 0-2 grid, 3 continuous.
  c.x.assign(n, std::vector<double>(c.num_features));
  for (int r = 0; r < n; ++r) {
    for (int f = 0; f < base_features; ++f) {
      c.x[r][f] = shape[f] == 3 ? rng.Normal()
                                : 0.5 * rng.UniformInt(3 + shape[f] * 4);
    }
    c.x[r][base_features] = c.x[r][0];
    c.x[r][base_features + 1] = -c.x[r][0];
    const int signal = static_cast<int>(std::fabs(c.x[r][0]) * 2.0) % classes;
    c.y.push_back(rng.Uniform() < 0.6 ? signal : rng.UniformInt(classes));
  }
  c.probes = c.x;
  const int depths[] = {6, 10};
  const int leaves[] = {1, 2, 5};
  const int features[] = {0, 0, 2};
  c.max_depth = depths[rng.UniformInt(2)];
  c.min_samples_leaf = leaves[rng.UniformInt(3)];
  c.max_features = features[rng.UniformInt(3)];
  return c;
}

constexpr uint64_t kCases = 240;
constexpr uint64_t kWideCases = 40;

/// Calls check(case, seed) on every MakeCase seed, then every MakeWideCase
/// seed.
template <typename Check>
void ForEachCase(const Check& check) {
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check(MakeCase(seed), seed);
  }
  for (uint64_t seed = 1; seed <= kWideCases; ++seed) {
    SCOPED_TRACE("wide seed " + std::to_string(seed));
    check(MakeWideCase(seed), seed);
  }
}

TEST(TreeOracleTest, DecisionTreeMatchesSortPerNodeReference) {
  ForEachCase([](const Case& c, uint64_t seed) {
    TreeConfig tc;
    tc.regression = c.regression;
    tc.max_depth = c.max_depth;
    tc.min_samples_leaf = c.min_samples_leaf;
    tc.max_features = c.max_features;
    tc.seed = seed * 31;

    // A bootstrap with repeats, plus the forest's injected extra row.
    Rng rng(seed + 7);
    const int n = static_cast<int>(c.x.size());
    std::vector<int> sample;
    for (int i = 0; i < n; ++i) sample.push_back(rng.UniformInt(n));
    sample.push_back(n / 2);
    Rows bx;
    std::vector<double> by;
    for (int r : sample) {
      bx.push_back(c.x[r]);
      by.push_back(c.y[r]);
    }

    for (bool use_sample : {false, true}) {
      reference::Tree expected(tc);
      DecisionTree actual(tc);
      if (use_sample) {
        expected.Fit(bx, by);
        actual.Fit(PresortedData(c.x, c.y), sample);
      } else {
        expected.Fit(c.x, c.y);
        actual.Fit(c.x, c.y);
      }
      std::vector<double> predict, score;
      for (const auto& row : c.probes) {
        predict.push_back(expected.PredictOne(row));
        score.push_back(expected.Score(row));
      }
      ASSERT_EQ(actual.num_classes(), expected.num_classes());
      EXPECT_EQ(Bits(actual.Predict(c.probes)), Bits(predict)) << use_sample;
      EXPECT_EQ(Bits(actual.PredictScore(c.probes)), Bits(score))
          << use_sample;
      EXPECT_EQ(Bits(actual.FeatureImportance()), Bits(expected.importance()))
          << use_sample;
    }
  });
}

TEST(TreeOracleTest, RandomForestMatchesRowCopyReference) {
  int injected = 0;
  ForEachCase([&injected](const Case& c, uint64_t seed) {
    ForestConfig fc;
    fc.regression = c.regression;
    fc.num_trees = 4;
    fc.max_depth = c.max_depth;
    fc.min_samples_leaf = c.min_samples_leaf;
    fc.max_features = c.max_features;
    fc.bootstrap_fraction = seed % 3 == 0 ? 0.3 : 1.0;
    fc.seed = seed;

    reference::Forest expected(fc);
    injected += expected.Fit(c.x, c.y);
    RandomForest actual(fc);
    actual.Fit(c.x, c.y);
    std::vector<double> predict, score;
    for (const auto& row : c.probes) {
      predict.push_back(expected.PredictOne(row));
      score.push_back(expected.Score(row));
    }
    EXPECT_EQ(Bits(actual.Predict(c.probes)), Bits(predict));
    EXPECT_EQ(Bits(actual.PredictScore(c.probes)), Bits(score));
    EXPECT_EQ(Bits(actual.FeatureImportance()), Bits(expected.importance()));
    if (!c.regression) {
      EXPECT_EQ(Bits(actual.PredictProba(c.probes[0])),
                Bits(expected.Proba(c.probes[0])));
    }
  });
  // The configurations must reach the injected-positive bootstrap.
  EXPECT_GT(injected, 0);
}

}  // namespace
}  // namespace fastft
