// CART decision tree for classification (Gini) and regression (variance).
//
// Supports per-node feature subsampling (for forests), depth and leaf-size
// limits, class-probability leaves, and impurity-decrease feature
// importances (used by the traceability study, Table IV).
//
// Split search never sorts at a node: every feature is sorted once per
// training set (PresortedData), and each node is a segment of per-feature
// instance lists that splits stably partition (DESIGN.md, "Tree fitting").
// A k-fold evaluation sorts once for all its folds: each fold's training
// set is a view of the full presort.
//
// The classification scan decides most split positions on integer class
// counts alone: it skips every position whose Gini gain provably cannot beat
// the best so far, so the fitted tree is the same bit for bit.

#pragma once

#include <cstdint>
#include <vector>

#include "data/dataframe.h"
#include "ml/model.h"

namespace fastft {

struct TreeConfig {
  bool regression = false;
  int max_depth = 6;
  int min_samples_leaf = 2;
  /// Number of features examined per split; <=0 means all features.
  int max_features = 0;
  uint64_t seed = 13;
};

/// A training set transposed into columns, with every feature sorted once by
/// (value, label, row). Immutable after construction: a forest builds one and
/// every tree — on any pool thread — fits from it concurrently.
///
/// The evaluator sorts a dataset once per Evaluate and fits each fold from a
/// view of that one presort (DESIGN.md, "Tree fitting"): the view of
/// ascending rows is the presort of those rows, bit for bit.
class PresortedData {
 public:
  PresortedData(const Rows& x, const std::vector<double>& y);
  /// The same data read column-major from `x` (no row copy).
  PresortedData(const DataFrame& x, const std::vector<double>& y);
  /// The rows `rows` of `full`, which must be strictly ascending. Each
  /// feature's order is `full`'s order filtered to those rows: the row→local
  /// map is increasing, so the (value, label, row) order survives, and the
  /// view equals a presort built on those rows bit for bit.
  PresortedData(const PresortedData& full, const std::vector<int>& rows);

  int num_rows() const { return num_rows_; }
  int num_features() const { return num_features_; }
  const std::vector<double>& labels() const { return labels_; }
  /// Feature-major storage, exposed for exactness tests.
  const std::vector<double>& columns() const { return columns_; }
  const std::vector<int>& order() const { return order_; }

 private:
  friend class DecisionTree;

  /// Sorts every feature of the filled columns_ by (value, label, row).
  void SortColumns();

  int num_rows_;
  int num_features_;
  std::vector<double> labels_;
  /// Feature-major, indexed [feature * num_rows + i]: x[i][feature], and
  /// the row at rank i of the feature's (value, label, row) order.
  std::vector<double> columns_;
  std::vector<int> order_;
};

class DecisionTree : public Model {
 public:
  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  void Fit(const Rows& x, const std::vector<double>& y) override;

  /// Fits on the rows of `data` listed in `sample` — a bootstrap in draw
  /// order, repeats allowed. Identical, bit for bit, to Fit() on those rows
  /// materialized in that order.
  void Fit(const PresortedData& data, const std::vector<int>& sample);

  std::vector<double> Predict(const Rows& x) const override;
  std::vector<double> PredictScore(const Rows& x) const override;

  /// Single-row prediction without per-call allocation (hot path for
  /// forests and boosting).
  double PredictOne(const std::vector<double>& row) const;

  /// Per-class probabilities for one sample (classification only): the
  /// leaf's distribution, borrowed from the tree.
  const std::vector<double>& PredictProba(const std::vector<double>& row) const;

  /// Total impurity decrease attributed to each feature; sums to ~1 after
  /// normalization (all-zero if the tree is a stump).
  const std::vector<double>& FeatureImportance() const { return importance_; }

  int num_classes() const { return num_classes_; }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    bool is_leaf = true;
    /// Class distribution (classification) or {mean} (regression).
    std::vector<double> value;
  };
  struct Workspace;

  int BuildNode(Workspace& ws, int begin, int end, int depth, class Rng* rng);
  const Node& Descend(const std::vector<double>& row) const;

  TreeConfig config_;
  int num_classes_ = 0;
  int num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace fastft
