// AFT (autofeat-style, Table I baseline 4): alternating expand/select loop.
//
// Each round expands with a random pool of operations, then selects a
// low-redundancy, high-relevance subset (greedy mRMR-style filter), and
// evaluates the selected dataset; the best round wins.

#include "baselines/methods.h"

#include <algorithm>

#include "common/rng.h"
#include "core/feature_space.h"
#include "core/mutual_information.h"

namespace fastft {
namespace {

// Greedy mRMR-style selection: maximize relevance − mean redundancy with
// the already-selected set.
std::vector<int> GreedyMrmr(const DataFrame& frame,
                            const std::vector<double>& labels, TaskType task,
                            int k) {
  const int d = frame.NumCols();
  std::vector<double> relevance = FeatureRelevance(frame, labels, task);
  std::vector<std::vector<int>> binned(d);
  for (int c = 0; c < d; ++c) binned[c] = QuantileBin(frame.Col(c), 8);

  std::vector<int> selected;
  std::vector<bool> used(d, false);
  while (static_cast<int>(selected.size()) < std::min(k, d)) {
    int best = -1;
    double best_score = -1e300;
    for (int c = 0; c < d; ++c) {
      if (used[c]) continue;
      double redundancy = 0.0;
      for (int s : selected) {
        redundancy += DiscreteMutualInformation(binned[c], binned[s]);
      }
      if (!selected.empty()) {
        redundancy /= static_cast<double>(selected.size());
      }
      double score = relevance[c] - redundancy;
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    if (best < 0) break;
    used[best] = true;
    selected.push_back(best);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

}  // namespace

BaselineResult RunAft(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  FeatureSpaceConfig fs;
  fs.max_features = std::max(3 * dataset.NumFeatures(), kFeatureBudget * 2);
  fs.max_new_per_step = 16;
  FeatureSpace space(dataset, fs);

  const int rounds = std::max(2, config.iterations / 6);
  for (int round = 0; round < rounds; ++round) {
    // Expansion with a random operation pool.
    const int pool = 6;
    for (int p = 0; p < pool; ++p) {
      OpType op = OpFromIndex(run.rng.UniformInt(kNumOperations));
      std::vector<int> head = {run.rng.UniformInt(space.NumColumns())};
      std::vector<int> tail;
      if (!IsUnary(op)) tail = {run.rng.UniformInt(space.NumColumns())};
      space.ApplyOperation(op, head, tail, &run.rng);
    }
    // Selection + evaluation.
    Dataset expanded = space.ToDataset();
    std::vector<int> keep =
        GreedyMrmr(expanded.features, expanded.labels, expanded.task,
                   kFeatureBudget);
    Dataset selected =
        expanded.WithFeatures(expanded.features.SelectColumns(keep));
    double score = run.evaluator.Evaluate(selected);
    if (score > run.result.score) {
      run.result.score = score;
      run.result.best_dataset = std::move(selected);
    }
  }
  return run.Finish();
}

}  // namespace fastft
