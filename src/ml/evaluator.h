// Downstream task evaluation: k-fold cross-validated metric of a dataset.
//
// This is the expensive feedback signal the paper calls A(T(F), y) — the
// runtime bottleneck FastFT's Performance Predictor replaces. The evaluator
// also exposes a feature-importance fit (Table IV) and counts the work it
// did (calls, folds, trees): one engine run owns one Evaluator, so these are
// that run's counts, whatever else runs in the process.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "data/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"

namespace fastft {

/// Downstream model families (Table III).
enum class ModelKind {
  kRandomForest,
  kDecisionTree,
  kGradientBoosting,
  kLogisticRegression,
  kLinearSvm,
  kRidge,
};

const char* ModelKindName(ModelKind kind);

/// Builds a model of `kind` appropriate for `task`.
std::unique_ptr<Model> MakeModel(ModelKind kind, TaskType task, uint64_t seed,
                                 int forest_trees = 10, int forest_depth = 6);

struct EvaluatorConfig {
  ModelKind model = ModelKind::kRandomForest;
  int folds = 3;
  int forest_trees = 8;
  int forest_depth = 6;
  /// Folds of one Evaluate scored concurrently on the shared pool. 1 =
  /// serial, 0 = all hardware threads. Scores are bit-identical for any
  /// value (per-fold seeds are derived up front and the reduction runs in
  /// fold order).
  int num_threads = 1;
  /// Optional cooperative deadline (borrowed; may be null). When expired,
  /// remaining folds are skipped: Evaluate returns NaN when every fold was
  /// skipped instead of blocking until completion. Callers that see the
  /// deadline expired must discard the score — partially-skipped scores are
  /// NOT deterministic across thread counts.
  const common::DeadlineToken* deadline = nullptr;
  uint64_t seed = 100;
};

class Evaluator {
 public:
  explicit Evaluator(EvaluatorConfig config = {}) : config_(config) {}

  /// Cross-validated score with the task's default metric (F1 / 1-RAE / AUC).
  /// Returns NaN when every fold was skipped (train < 2 or test < 1 rows):
  /// a degenerate input must stay distinguishable from a legitimate zero
  /// score. Callers on the reward path check std::isfinite.
  ///
  /// A random forest sorts the dataset's columns once per call and fits
  /// each fold from a view of that presort (PresortedData): no fold copies
  /// its training rows or sorts them, and the score is bit-identical to
  /// fitting on the fold's own rows. Other models fit on a row copy.
  double Evaluate(const Dataset& dataset) const;

  /// Cross-validated score with an explicit metric (NaN when every fold was
  /// skipped, as above).
  double Evaluate(const Dataset& dataset, Metric metric) const;

  /// Impurity feature importances from a random forest fit on all rows,
  /// presorted straight from the dataset's columns.
  std::vector<double> FeatureImportance(const Dataset& dataset) const;

  /// Work done by Evaluate since construction. Each count is a relaxed
  /// atomic, because Evaluate's folds count from pool workers.
  /// FeatureImportance counts nothing.
  ///
  /// Evaluate calls (each a full k-fold fit).
  int64_t evaluation_count() const {
    return evaluation_count_.load(std::memory_order_relaxed);
  }
  /// Folds fitted and scored.
  int64_t fold_count() const {
    return fold_count_.load(std::memory_order_relaxed);
  }
  /// Folds skipped as too small (train < 2 or test < 1 rows).
  int64_t skipped_fold_count() const {
    return skipped_fold_count_.load(std::memory_order_relaxed);
  }
  /// Forest trees fitted: forest_trees per fitted fold of a random forest.
  int64_t trees_fit() const {
    return trees_fit_.load(std::memory_order_relaxed);
  }

  const EvaluatorConfig& config() const { return config_; }

 private:
  EvaluatorConfig config_;
  mutable std::atomic<int64_t> evaluation_count_{0};
  mutable std::atomic<int64_t> fold_count_{0};
  mutable std::atomic<int64_t> skipped_fold_count_{0};
  mutable std::atomic<int64_t> trees_fit_{0};
};

}  // namespace fastft

