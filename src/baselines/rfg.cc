// RFG: random feature generation (Table I baseline 1).
//
// Each iteration applies a uniformly random operation to uniformly random
// candidate feature(s), evaluates the resulting dataset downstream, and
// keeps the best dataset seen.

#include "baselines/methods.h"

#include "common/rng.h"
#include "core/feature_space.h"

namespace fastft {

BaselineResult RunRfg(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  FeatureSpaceConfig fs;
  fs.max_features = std::max(kFeatureBudget, dataset.NumFeatures() + 8);
  FeatureSpace space(dataset, fs);

  for (int it = 0; it < config.iterations; ++it) {
    OpType op = OpFromIndex(run.rng.UniformInt(kNumOperations));
    std::vector<int> head = {run.rng.UniformInt(space.NumColumns())};
    std::vector<int> tail;
    if (!IsUnary(op)) tail = {run.rng.UniformInt(space.NumColumns())};
    int added = space.ApplyOperation(op, head, tail, &run.rng);
    if (added == 0) continue;
    double score = run.evaluator.Evaluate(space.ToDataset());
    if (score > run.result.score) {
      run.result.score = score;
      run.result.best_dataset = space.ToDataset();
    }
  }
  return run.Finish();
}

}  // namespace fastft
