#include "ml/evaluator.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "data/split.h"
#include "ml/gradient_boosting.h"
#include "ml/linear_models.h"
#include "ml/random_forest.h"

namespace fastft {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest:
      return "RFC";
    case ModelKind::kDecisionTree:
      return "DT-C";
    case ModelKind::kGradientBoosting:
      return "XGBC";
    case ModelKind::kLogisticRegression:
      return "LR";
    case ModelKind::kLinearSvm:
      return "SVM-C";
    case ModelKind::kRidge:
      return "Ridge-C";
  }
  return "?";
}

std::unique_ptr<Model> MakeModel(ModelKind kind, TaskType task, uint64_t seed,
                                 int forest_trees, int forest_depth) {
  const bool regression = task == TaskType::kRegression;
  switch (kind) {
    case ModelKind::kRandomForest: {
      ForestConfig fc;
      fc.regression = regression;
      fc.num_trees = forest_trees;
      fc.max_depth = forest_depth;
      fc.seed = seed;
      return std::make_unique<RandomForest>(fc);
    }
    case ModelKind::kDecisionTree: {
      TreeConfig tc;
      tc.regression = regression;
      tc.max_depth = forest_depth;
      tc.seed = seed;
      return std::make_unique<DecisionTree>(tc);
    }
    case ModelKind::kGradientBoosting: {
      BoostingConfig bc;
      bc.regression = regression;
      bc.seed = seed;
      return std::make_unique<GradientBoosting>(bc);
    }
    case ModelKind::kLogisticRegression: {
      FASTFT_CHECK(!regression) << "logistic regression needs class labels";
      LogisticConfig lc;
      lc.seed = seed;
      return std::make_unique<LogisticRegression>(lc);
    }
    case ModelKind::kLinearSvm: {
      FASTFT_CHECK(!regression) << "SVM classifier needs class labels";
      SvmConfig sc;
      sc.seed = seed;
      return std::make_unique<LinearSvm>(sc);
    }
    case ModelKind::kRidge:
      return std::make_unique<Ridge>(!regression);
  }
  FASTFT_CHECK(false) << "unreachable";
  return nullptr;
}

double Evaluator::Evaluate(const Dataset& dataset) const {
  return Evaluate(dataset, DefaultMetric(dataset.task));
}

namespace {

/// The rows `rows` of `frame`, row-major, for model fitting and prediction.
Rows RowsOf(const DataFrame& frame, const std::vector<int>& rows) {
  Rows out(rows.size(), std::vector<double>(frame.NumCols()));
  for (int c = 0; c < frame.NumCols(); ++c) {
    const std::vector<double>& col = frame.Col(c);
    for (size_t i = 0; i < rows.size(); ++i) out[i][c] = col[rows[i]];
  }
  return out;
}

std::vector<double> LabelsOf(const Dataset& dataset,
                             const std::vector<int>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (int r : rows) out.push_back(dataset.labels[r]);
  return out;
}

}  // namespace

double Evaluator::Evaluate(const Dataset& dataset, Metric metric) const {
  FASTFT_TRACE_SPAN("evaluator/evaluate");
  FASTFT_CHECK(dataset.Validate().ok()) << dataset.Validate().ToString();
  evaluation_count_.fetch_add(1, std::memory_order_relaxed);
  std::vector<TrainTestIndices> folds =
      KFoldSplit(dataset, config_.folds, config_.seed);
  // A forest fits each fold from a view of one presort of the whole dataset
  // (KFoldSplit's train rows are ascending, so the view is exactly the
  // fold's own presort); other models fit on a row copy of the fold.
  const bool forest = config_.model == ModelKind::kRandomForest;
  std::optional<PresortedData> presorted;
  if (forest) presorted.emplace(dataset.features, dataset.labels);
  // Folds are independent: each derives its own model seed from (seed, k),
  // so they can be scored concurrently and still reproduce the serial run
  // bit for bit — the reduction below always sums in fold order.
  std::vector<double> fold_score(folds.size(), 0.0);
  std::vector<char> fold_used(folds.size(), 0);
  auto score_fold = [&](int64_t k) {
    FASTFT_TRACE_SPAN("evaluator/fold");
    // Cooperative cancellation: a fold skipped on deadline leaves
    // fold_used[k] == 0, so the reduction yields NaN and the caller (which
    // must re-check the deadline) discards the score.
    if (config_.deadline != nullptr && config_.deadline->Expired()) return;
    const TrainTestIndices& fold = folds[k];
    if (fold.train.size() < 2 || fold.test.empty()) {
      skipped_fold_count_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    fold_count_.fetch_add(1, std::memory_order_relaxed);
    // RandomForest::Fit fits exactly num_trees trees.
    if (forest) {
      trees_fit_.fetch_add(config_.forest_trees, std::memory_order_relaxed);
    }
    std::unique_ptr<Model> model =
        MakeModel(config_.model, dataset.task,
                  DeriveSeed(config_.seed, static_cast<uint64_t>(k) + 1),
                  config_.forest_trees, config_.forest_depth);
    if (forest) {
      // MakeModel builds a RandomForest for kRandomForest.
      static_cast<RandomForest&>(*model).Fit(
          PresortedData(*presorted, fold.train));
    } else {
      model->Fit(RowsOf(dataset.features, fold.train),
                 LabelsOf(dataset, fold.train));
    }
    Rows test_rows = RowsOf(dataset.features, fold.test);
    std::vector<double> pred = metric == Metric::kAuc
                                   ? model->PredictScore(test_rows)
                                   : model->Predict(test_rows);
    fold_score[k] = ComputeMetric(metric, LabelsOf(dataset, fold.test), pred);
    fold_used[k] = 1;
  };
  common::ParallelFor(0, static_cast<int64_t>(folds.size()),
                      common::ResolveThreadCount(config_.num_threads),
                      score_fold);
  double total = 0.0;
  int used = 0;
  for (size_t k = 0; k < folds.size(); ++k) {
    if (!fold_used[k]) continue;
    total += fold_score[k];
    ++used;
  }
  // Every fold skipped (train < 2 or test < 1 rows): NaN, never 0.0 — a
  // degenerate input must not masquerade as a legitimate zero score on the
  // reward path. Callers guard with std::isfinite.
  return used > 0 ? total / used : std::numeric_limits<double>::quiet_NaN();
}

std::vector<double> Evaluator::FeatureImportance(
    const Dataset& dataset) const {
  ForestConfig fc;
  fc.regression = dataset.task == TaskType::kRegression;
  fc.num_trees = std::max(config_.forest_trees, 10);
  fc.max_depth = config_.forest_depth;
  fc.seed = config_.seed;
  RandomForest forest(fc);
  forest.Fit(PresortedData(dataset.features, dataset.labels));
  return forest.FeatureImportance();
}

}  // namespace fastft
