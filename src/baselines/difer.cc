// DIFER (Table I baseline 7): differentiable/embedding-space feature search.
//
// Collects (expression, score) pairs from random exploration, trains a
// sequence surrogate (the shared LSTM encoder + regressor), then performs a
// greedy search: mutate the best expressions, rank mutants by the
// surrogate, and spend the scarce downstream evaluations only on the
// surrogate's top picks.

#include "baselines/methods.h"

#include <algorithm>

#include "common/rng.h"
#include "core/performance_predictor.h"
#include "core/tokenizer.h"

namespace fastft {
namespace {

// Random expression of depth ≤ 3 over the original features.
ExprPtr RandomExpr(int num_features, int depth, Rng* rng) {
  if (depth <= 1 || rng->Bernoulli(0.3)) {
    return MakeLeaf(rng->UniformInt(num_features));
  }
  OpType op = OpFromIndex(rng->UniformInt(kNumOperations));
  if (IsUnary(op)) {
    return MakeUnary(op, RandomExpr(num_features, depth - 1, rng));
  }
  return MakeBinary(op, RandomExpr(num_features, depth - 1, rng),
                    RandomExpr(num_features, depth - 1, rng));
}

// Mutation: replace a random aspect — the root op, a leaf, or a subtree.
ExprPtr Mutate(const ExprPtr& expr, int num_features, Rng* rng) {
  switch (rng->UniformInt(3)) {
    case 0:  // wrap in a unary op
      return MakeUnary(OpFromIndex(rng->UniformInt(kNumUnaryOperations)),
                       expr);
    case 1:  // combine with a fresh leaf
      return MakeBinary(
          OpFromIndex(kNumUnaryOperations +
                      rng->UniformInt(kNumOperations - kNumUnaryOperations)),
          expr, MakeLeaf(rng->UniformInt(num_features)));
    default:  // fresh subtree
      return RandomExpr(num_features, 3, rng);
  }
}

// Dataset = originals + this single candidate expression.
Dataset WithExpression(const Dataset& dataset, const ExprPtr& expr) {
  std::vector<std::vector<double>> originals;
  originals.reserve(dataset.NumFeatures());
  for (int c = 0; c < dataset.NumFeatures(); ++c) {
    originals.push_back(dataset.features.Col(c));
  }
  std::vector<double> column = EvalExpr(expr, originals);
  Dataset out = dataset;
  std::string name = ExprToString(expr);
  if (!out.features.AddColumn(name, std::move(column)).ok()) return dataset;
  return out;
}

}  // namespace

BaselineResult RunDifer(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);
  Tokenizer tokenizer;

  // Phase 1: random collection of (expression, score) pairs. Every
  // candidate expression is drawn before any is scored, so the rng stream
  // does not depend on the scores.
  struct Scored {
    ExprPtr expr;
    double score;
  };
  std::vector<Scored> pool;
  std::vector<SequenceRecord> records;
  const int collect = std::max(6, config.iterations / 3);
  std::vector<ExprPtr> drawn;
  drawn.reserve(collect);
  for (int i = 0; i < collect; ++i) {
    drawn.push_back(RandomExpr(dataset.NumFeatures(), 3, &run.rng));
  }
  for (const ExprPtr& expr : drawn) {
    const double score = run.evaluator.Evaluate(WithExpression(dataset, expr));
    pool.push_back({expr, score});
    records.push_back({tokenizer.EncodeExpr(expr), score});
  }

  // Phase 2: surrogate training on the collected embeddings.
  PredictorConfig pc;
  pc.vocab_size = tokenizer.vocab_size();
  pc.num_layers = 1;
  pc.seed = DeriveSeed(config.seed, 2);
  PerformancePredictor surrogate(pc);
  Rng train_rng(DeriveSeed(config.seed, 3));
  surrogate.Fit(records, /*epochs=*/20, &train_rng);

  // Phase 3: greedy search in the learned space.
  std::sort(pool.begin(), pool.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  const int rounds = 3;
  const int mutants_per_round = 10;
  const int evals_per_round = 2;
  for (int round = 0; round < rounds; ++round) {
    struct Ranked {
      ExprPtr expr;
      double predicted;
    };
    std::vector<Ranked> mutants;
    const int parents = std::min<int>(3, static_cast<int>(pool.size()));
    for (int m = 0; m < mutants_per_round; ++m) {
      const ExprPtr& parent = pool[run.rng.UniformInt(parents)].expr;
      ExprPtr mutant = Mutate(parent, dataset.NumFeatures(), &run.rng);
      mutants.push_back(
          {mutant, surrogate.Predict(tokenizer.EncodeExpr(mutant))});
    }
    std::sort(mutants.begin(), mutants.end(),
              [](const Ranked& a, const Ranked& b) {
                return a.predicted > b.predicted;
              });
    // Only the surrogate's top picks pay for a downstream evaluation.
    const int evals =
        std::min(evals_per_round, static_cast<int>(mutants.size()));
    for (int e = 0; e < evals; ++e) {
      const double score =
          run.evaluator.Evaluate(WithExpression(dataset, mutants[e].expr));
      pool.push_back({mutants[e].expr, score});
      records.push_back({tokenizer.EncodeExpr(mutants[e].expr), score});
    }
    surrogate.Finetune(records);
    std::sort(pool.begin(), pool.end(), [](const Scored& a, const Scored& b) {
      return a.score > b.score;
    });
  }

  // Final dataset: originals + the top-k discovered expressions.
  Dataset final_dataset = dataset;
  std::vector<std::vector<double>> originals;
  for (int c = 0; c < dataset.NumFeatures(); ++c) {
    originals.push_back(dataset.features.Col(c));
  }
  const int top_k = std::min<int>(8, static_cast<int>(pool.size()));
  for (int k = 0; k < top_k; ++k) {
    if (pool[k].score <= run.result.base_score) break;
    std::vector<double> column = EvalExpr(pool[k].expr, originals);
    // A duplicate generated name just skips that candidate column; the
    // baseline scores whatever subset was added.
    (void)final_dataset.features.AddColumn(  // fastft-analyze: allow(discarded-status): best-effort add, duplicates skipped by design
        ExprToString(pool[k].expr), std::move(column));
  }
  double final_score = run.evaluator.Evaluate(final_dataset);
  if (final_score > run.result.score) {
    run.result.score = final_score;
    run.result.best_dataset = std::move(final_dataset);
  } else if (!pool.empty() && pool[0].score > run.result.score) {
    run.result.score = pool[0].score;
    run.result.best_dataset = WithExpression(dataset, pool[0].expr);
  }
  return run.Finish();
}

}  // namespace fastft
