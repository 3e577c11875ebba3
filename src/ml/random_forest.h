// Random forest: bagged CART trees with per-split feature subsampling.
//
// The default downstream evaluator of the whole framework (the paper follows
// the common configuration of prior FT work and evaluates with a random
// forest). Probability averaging across trees gives the AUC scores.

#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace fastft {

struct ForestConfig {
  bool regression = false;
  int num_trees = 10;
  int max_depth = 6;
  int min_samples_leaf = 2;
  /// <=0: sqrt(num_features) per split.
  int max_features = 0;
  double bootstrap_fraction = 1.0;
  uint64_t seed = 17;
};

class RandomForest : public Model {
 public:
  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  /// Presorts (x, y) and fits from it.
  void Fit(const Rows& x, const std::vector<double>& y) override;
  /// Fits on a presorted training set — a full presort, or a fold's view of
  /// one (the evaluator's path, which never copies a fold's rows).
  void Fit(const PresortedData& data);
  std::vector<double> Predict(const Rows& x) const override;
  std::vector<double> PredictScore(const Rows& x) const override;

  /// Mean per-class probabilities over trees for one sample.
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Mean normalized impurity importance over trees.
  std::vector<double> FeatureImportance() const;

  int num_classes() const { return num_classes_; }

 private:
  /// PredictProba into a caller-owned buffer, reused across rows.
  void MeanProba(const std::vector<double>& row,
                 std::vector<double>* probs) const;

  ForestConfig config_;
  int num_classes_ = 0;
  int num_features_ = 0;
  std::vector<DecisionTree> trees_;
};

}  // namespace fastft

