// ERG: expand-reduce generation (Table I baseline 2).
//
// Applies every unary operation to every feature and every binary operation
// to a sampled set of feature pairs (one big expansion), then reduces with
// MI-based top-k selection and evaluates the reduced dataset.

#include "baselines/methods.h"

#include <algorithm>

#include "common/rng.h"
#include "core/feature_space.h"
#include "core/mutual_information.h"

namespace fastft {

BaselineResult RunErg(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  // Expansion: generous budget during the expand phase, trimmed afterwards.
  FeatureSpaceConfig fs;
  fs.max_features = std::max(4 * dataset.NumFeatures(), kFeatureBudget * 2);
  fs.max_new_per_step = 1 << 20;  // expansion is deliberately exhaustive
  FeatureSpace space(dataset, fs);

  std::vector<int> all(dataset.NumFeatures());
  for (int c = 0; c < dataset.NumFeatures(); ++c) all[c] = c;
  // Every unary op on every original feature.
  for (int op = 0; op < kNumUnaryOperations; ++op) {
    space.ApplyOperation(OpFromIndex(op), all, {}, &run.rng);
  }
  // Binary ops on sampled original pairs (full cross would be quadratic).
  const int pair_budget = std::min(4 * dataset.NumFeatures(), 96);
  for (int op = kNumUnaryOperations; op < kNumOperations; ++op) {
    for (int p = 0; p < pair_budget; ++p) {
      int a = run.rng.UniformInt(dataset.NumFeatures());
      int b = run.rng.UniformInt(dataset.NumFeatures());
      space.ApplyOperation(OpFromIndex(op), {a}, {b}, &run.rng);
    }
  }

  // Reduction: top-k by MI relevance over the expanded frame.
  Dataset expanded = space.ToDataset();
  std::vector<int> keep =
      TopKByRelevance(expanded.features, expanded.labels, expanded.task,
                      std::min(kFeatureBudget, expanded.NumFeatures()));
  Dataset reduced = expanded.WithFeatures(expanded.features.SelectColumns(keep));

  // ERG commits to its reduced set (it can lose information relative to the
  // originals — the behaviour the paper's Table I shows).
  run.result.score = run.evaluator.Evaluate(reduced);
  run.result.best_dataset = std::move(reduced);
  return run.Finish();
}

}  // namespace fastft
