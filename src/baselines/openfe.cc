// OpenFE (Table I baseline 8): feature boosting + two-stage pruning.
//
// Enumerates candidate features, scores them by *feature boost* — the
// information a candidate carries about the base model's residual — on a
// cheap data block (stage 1), then promotes the top slice and greedily
// accepts candidates that improve the cross-validated score (stage 2).

#include "baselines/methods.h"

#include <algorithm>

#include "common/rng.h"
#include "core/expression.h"
#include "core/mutual_information.h"
#include "ml/random_forest.h"

namespace fastft {
namespace {

struct Candidate {
  ExprPtr expr;
  std::vector<double> values;
  double boost = 0.0;
};

}  // namespace

BaselineResult RunOpenFe(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  // Base model residual: what the original features fail to explain.
  ForestConfig fc;
  fc.regression = dataset.task == TaskType::kRegression;
  fc.num_trees = 8;
  fc.max_depth = 5;
  fc.seed = DeriveSeed(config.seed, 2);
  RandomForest base_model(fc);
  Rows rows = dataset.features.ToRows();
  base_model.Fit(rows, dataset.labels);
  std::vector<double> residual(dataset.NumRows());
  if (fc.regression) {
    std::vector<double> pred = base_model.Predict(rows);
    for (int i = 0; i < dataset.NumRows(); ++i) {
      residual[i] = dataset.labels[i] - pred[i];
    }
  } else {
    std::vector<double> score = base_model.PredictScore(rows);
    for (int i = 0; i < dataset.NumRows(); ++i) {
      // Signed margin residual for classification.
      double target = dataset.labels[i] > 0.5 ? 1.0 : 0.0;
      residual[i] = target - score[i];
    }
  }

  // Candidate enumeration: unary ops × all features, binary ops × sampled
  // pairs.
  std::vector<std::vector<double>> originals;
  for (int c = 0; c < dataset.NumFeatures(); ++c) {
    originals.push_back(dataset.features.Col(c));
  }
  std::vector<Candidate> candidates;
  for (int op = 0; op < kNumUnaryOperations; ++op) {
    for (int f = 0; f < dataset.NumFeatures(); ++f) {
      Candidate cand;
      cand.expr = MakeUnary(OpFromIndex(op), MakeLeaf(f));
      cand.values = EvalExpr(cand.expr, originals);
      candidates.push_back(std::move(cand));
    }
  }
  const int pair_budget = std::min(6 * dataset.NumFeatures(), 120);
  for (int p = 0; p < pair_budget; ++p) {
    int a = run.rng.UniformInt(dataset.NumFeatures());
    int b = run.rng.UniformInt(dataset.NumFeatures());
    int op = kNumUnaryOperations +
             run.rng.UniformInt(kNumOperations - kNumUnaryOperations);
    Candidate cand;
    cand.expr = MakeBinary(OpFromIndex(op), MakeLeaf(a), MakeLeaf(b));
    cand.values = EvalExpr(cand.expr, originals);
    candidates.push_back(std::move(cand));
  }

  // Stage 1: feature boost on a data block (row subsample).
  const int block = std::min(dataset.NumRows(), 256);
  std::vector<int> block_rows =
      run.rng.SampleWithoutReplacement(dataset.NumRows(), block);
  std::vector<double> block_residual;
  block_residual.reserve(block_rows.size());
  for (int r : block_rows) block_residual.push_back(residual[r]);
  for (Candidate& cand : candidates) {
    std::vector<double> block_values;
    block_values.reserve(block_rows.size());
    for (int r : block_rows) block_values.push_back(cand.values[r]);
    cand.boost = EstimateMI(block_values, block_residual, 8);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.boost > b.boost;
            });
  // Keep the top slice.
  const int promoted =
      std::max(4, static_cast<int>(candidates.size()) / 4);
  candidates.resize(std::min<size_t>(candidates.size(), promoted));

  // Stage 2: greedy acceptance under full cross-validated evaluation.
  Dataset current = dataset;
  double current_score = run.result.base_score;
  const int stage2_evals = 6;
  for (int e = 0; e < stage2_evals && e < static_cast<int>(candidates.size());
       ++e) {
    Dataset trial = current;
    if (!trial.features
             .AddColumn(ExprToString(candidates[e].expr),
                        candidates[e].values)
             .ok()) {
      continue;
    }
    double score = run.evaluator.Evaluate(trial);
    if (score > current_score) {
      current_score = score;
      current = std::move(trial);
    }
  }
  if (current_score > run.result.score) {
    run.result.score = current_score;
    run.result.best_dataset = std::move(current);
  }
  return run.Finish();
}

}  // namespace fastft
