#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fastft {

void RandomForest::Fit(const Rows& x, const std::vector<double>& y) {
  Fit(PresortedData(x, y));
}

void RandomForest::Fit(const PresortedData& data) {
  const std::vector<double>& y = data.labels();
  num_features_ = data.num_features();
  if (config_.regression) {
    num_classes_ = 0;
  } else {
    int max_label = 0;
    for (double v : y) max_label = std::max(max_label, static_cast<int>(v));
    num_classes_ = max_label + 1;
  }

  int per_split = config_.max_features;
  if (per_split <= 0) {
    per_split = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(num_features_))));
  }

  Rng rng(config_.seed);
  const int n = data.num_rows();
  const int boot_n =
      std::max(1, static_cast<int>(config_.bootstrap_fraction * n));

  // Every feature is sorted once (in `data`); each tree then fits from this
  // shared, read-only view through its bootstrap's row indices. All
  // bootstraps are drawn first, then the trees fit in order.
  std::vector<std::vector<int>> samples(config_.num_trees);
  for (std::vector<int>& sample : samples) {
    sample.reserve(boot_n + 1);
    bool has_positive = false;
    for (int i = 0; i < boot_n; ++i) {
      int r = rng.UniformInt(n);
      sample.push_back(r);
      has_positive |= (y[r] > 0.5);
    }
    // Keep bootstrap label diversity for classification: inject one sample
    // of a missing class rather than fitting a degenerate tree.
    if (!config_.regression && !has_positive) {
      for (int r = 0; r < n; ++r) {
        if (y[r] > 0.5) {
          sample.push_back(r);
          break;
        }
      }
    }
  }

  trees_.assign(config_.num_trees, DecisionTree());
  for (int t = 0; t < config_.num_trees; ++t) {
    FASTFT_TRACE_SPAN("forest/fit_tree");
    TreeConfig tc;
    tc.regression = config_.regression;
    tc.max_depth = config_.max_depth;
    tc.min_samples_leaf = config_.min_samples_leaf;
    tc.max_features = per_split;
    tc.seed = DeriveSeed(config_.seed, static_cast<uint64_t>(t) + 1);
    trees_[t] = DecisionTree(tc);
    trees_[t].Fit(data, samples[t]);
  }
  // Trees may have inferred fewer classes from a bootstrap; remember the max.
  for (const DecisionTree& tree : trees_) {
    num_classes_ = std::max(num_classes_, tree.num_classes());
  }
}

void RandomForest::MeanProba(const std::vector<double>& row,
                             std::vector<double>* probs) const {
  FASTFT_CHECK(!config_.regression);
  probs->assign(num_classes_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& p = tree.PredictProba(row);
    for (size_t c = 0; c < p.size(); ++c) (*probs)[c] += p[c];
  }
  for (double& p : *probs) p /= static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::PredictProba(
    const std::vector<double>& row) const {
  std::vector<double> probs;
  MeanProba(row, &probs);
  return probs;
}

std::vector<double> RandomForest::Predict(const Rows& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  if (config_.regression) {
    for (const auto& row : x) {
      double sum = 0.0;
      for (const DecisionTree& tree : trees_) {
        sum += tree.PredictOne(row);
      }
      out.push_back(sum / static_cast<double>(trees_.size()));
    }
  } else {
    std::vector<double> probs;
    for (const auto& row : x) {
      MeanProba(row, &probs);
      int best = 0;
      for (int c = 1; c < num_classes_; ++c) {
        if (probs[c] > probs[best]) best = c;
      }
      out.push_back(static_cast<double>(best));
    }
  }
  return out;
}

std::vector<double> RandomForest::PredictScore(const Rows& x) const {
  if (config_.regression) return Predict(x);
  std::vector<double> out;
  out.reserve(x.size());
  std::vector<double> probs;
  for (const auto& row : x) {
    MeanProba(row, &probs);
    out.push_back(probs.size() >= 2 ? probs[1] : 0.0);
  }
  return out;
}

std::vector<double> RandomForest::FeatureImportance() const {
  std::vector<double> importance(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& ti = tree.FeatureImportance();
    for (size_t f = 0; f < ti.size(); ++f) importance[f] += ti[f];
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

}  // namespace fastft
