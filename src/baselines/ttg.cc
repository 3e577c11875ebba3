// TTG (Table I baseline 6): transformation-graph exploration.
//
// Nodes are datasets; an edge applies one operation dataset-wide (unary ops
// to every column, binary ops between sampled column pairs). A tabular
// Q-function over (node, operation) is learned ε-greedily; each expansion
// evaluates the child dataset downstream, and the best node wins.

#include "baselines/methods.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.h"
#include "core/feature_space.h"

namespace fastft {
namespace {

struct GraphNode {
  std::unique_ptr<FeatureSpace> space;
  double score = 0.0;
};

}  // namespace

BaselineResult RunTtg(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  FeatureSpaceConfig fs;
  fs.max_features = std::max(kFeatureBudget, dataset.NumFeatures() + 8);
  fs.max_new_per_step = 16;

  std::vector<GraphNode> nodes;
  nodes.push_back(
      {std::make_unique<FeatureSpace>(dataset, fs), run.result.base_score});

  // Tabular Q over (node, op).
  std::map<std::pair<int, int>, double> q;
  const double epsilon = 0.3;
  const double lr = 0.5;
  const double gamma = 0.9;
  const int max_nodes = std::max(4, config.iterations / 2);

  while (static_cast<int>(nodes.size()) < max_nodes) {
    // ε-greedy pick of (node, op).
    int node_id = 0, op_id = 0;
    if (run.rng.Bernoulli(epsilon)) {
      node_id = run.rng.UniformInt(static_cast<int>(nodes.size()));
      op_id = run.rng.UniformInt(kNumOperations);
    } else {
      double best_q = -1e300;
      for (size_t n = 0; n < nodes.size(); ++n) {
        for (int op = 0; op < kNumOperations; ++op) {
          auto it = q.find({static_cast<int>(n), op});
          double value = it == q.end() ? 0.0 : it->second;
          if (value > best_q) {
            best_q = value;
            node_id = static_cast<int>(n);
            op_id = op;
          }
        }
      }
    }

    // Expand: apply the op dataset-wide on a copy of the node's space.
    GraphNode child;
    child.space = std::make_unique<FeatureSpace>(*nodes[node_id].space);
    OpType op = OpFromIndex(op_id);
    std::vector<int> all(child.space->NumColumns());
    for (int c = 0; c < child.space->NumColumns(); ++c) all[c] = c;
    int added;
    if (IsUnary(op)) {
      added = child.space->ApplyOperation(op, all, {}, &run.rng);
    } else {
      // Binary: sampled column pairs.
      std::vector<int> head, tail;
      for (int p = 0; p < std::min(8, child.space->NumColumns()); ++p) {
        head.push_back(run.rng.UniformInt(child.space->NumColumns()));
        tail.push_back(run.rng.UniformInt(child.space->NumColumns()));
      }
      added = child.space->ApplyOperation(op, head, tail, &run.rng);
    }
    double parent_score = nodes[node_id].score;
    if (added == 0) {
      // Dead edge; discourage it.
      double& value = q[{node_id, op_id}];
      value += lr * (-0.01 - value);
      continue;
    }
    child.score = run.evaluator.Evaluate(child.space->ToDataset());
    double reward = child.score - parent_score;

    if (child.score > run.result.score) {
      run.result.score = child.score;
      run.result.best_dataset = child.space->ToDataset();
    }
    int child_id = static_cast<int>(nodes.size());
    nodes.push_back(std::move(child));

    // Q-learning update: max over the child's ops (all unseen → 0).
    double child_max = 0.0;
    for (int op2 = 0; op2 < kNumOperations; ++op2) {
      auto it = q.find({child_id, op2});
      if (it != q.end()) child_max = std::max(child_max, it->second);
    }
    double& value = q[{node_id, op_id}];
    value += lr * (reward + gamma * child_max - value);
  }

  return run.Finish();
}

}  // namespace fastft
