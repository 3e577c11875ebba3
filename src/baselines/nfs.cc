// NFS (Table I baseline 5): neural feature search.
//
// A recurrent controller emits a transformation chain per original feature
// (operation tokens, with an explicit STOP); sampled plans are applied and
// evaluated downstream, and the controller is trained with REINFORCE against
// a running-mean baseline. Binary operations pair the feature with a
// controller-sampled partner.

#include "baselines/methods.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/feature_space.h"
#include "nn/embedding.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace fastft {
namespace {

constexpr int kStopAction = kNumOperations;  // extra STOP token
constexpr int kMaxChain = 2;
constexpr int kEmbedDim = 16;

struct Decision {
  int feature;           // which chain
  int slot;               // position in chain
  int prev_action;        // previous op (or kStopAction at start)
  int action;             // chosen op / STOP
};

// Controller: feature embedding ⊕ prev-op one-hot ⊕ slot scalar → logits.
class Controller {
 public:
  Controller(int num_features, uint64_t seed)
      : rng_(seed),
        embedding_(num_features, kEmbedDim, &rng_) {
    nn::MlpConfig mc;
    mc.dims = {kEmbedDim + kNumOperations + 2, 32, kNumOperations + 1};
    net_ = nn::Mlp(mc, &rng_);
    std::vector<nn::Parameter*> params;
    embedding_.CollectParams(&params);
    net_.CollectParams(&params);
    optimizer_ = std::make_unique<nn::AdamOptimizer>(params, 5e-3);
  }

  nn::Matrix BuildInput(int feature, int slot, int prev_action) {
    nn::Matrix emb = embedding_.Forward({feature});
    nn::Matrix input(1, kEmbedDim + kNumOperations + 2);
    for (int j = 0; j < kEmbedDim; ++j) input(0, j) = emb(0, j);
    if (prev_action >= 0 && prev_action < kNumOperations) {
      input(0, kEmbedDim + prev_action) = 1.0;
    }
    input(0, kEmbedDim + kNumOperations) =
        static_cast<double>(slot) / kMaxChain;
    input(0, kEmbedDim + kNumOperations + 1) = 1.0;  // bias-ish constant
    return input;
  }

  std::vector<double> Probs(const nn::Matrix& input) {
    nn::Matrix logits = net_.Forward(input);
    double max_logit = -1e300;
    for (int c = 0; c < logits.cols(); ++c) {
      max_logit = std::max(max_logit, logits(0, c));
    }
    std::vector<double> probs(logits.cols());
    double denom = 0.0;
    for (int c = 0; c < logits.cols(); ++c) {
      probs[c] = std::exp(logits(0, c) - max_logit);
      denom += probs[c];
    }
    for (double& p : probs) p /= denom;
    return probs;
  }

  int Sample(int feature, int slot, int prev_action, Rng* rng) {
    return rng->SampleDiscrete(Probs(BuildInput(feature, slot, prev_action)));
  }

  // REINFORCE update for one decision with the given advantage.
  void Update(const Decision& decision, double advantage) {
    nn::Matrix input =
        BuildInput(decision.feature, decision.slot, decision.prev_action);
    std::vector<double> probs = Probs(input);
    nn::Matrix d_logits(1, static_cast<int>(probs.size()));
    for (size_t c = 0; c < probs.size(); ++c) {
      d_logits(0, static_cast<int>(c)) =
          advantage *
          (probs[c] - (static_cast<int>(c) == decision.action ? 1.0 : 0.0));
    }
    nn::Matrix d_input = net_.Backward(d_logits);
    nn::Matrix d_emb(1, kEmbedDim);
    for (int j = 0; j < kEmbedDim; ++j) d_emb(0, j) = d_input(0, j);
    embedding_.Forward({decision.feature});  // refresh cache
    embedding_.Backward(d_emb);
    std::vector<nn::Parameter*> params;
    embedding_.CollectParams(&params);
    net_.CollectParams(&params);
    nn::ClipGradNorm(params, 5.0);
    optimizer_->Step();
  }

 private:
  Rng rng_;
  nn::Embedding embedding_;
  nn::Mlp net_;
  std::unique_ptr<nn::AdamOptimizer> optimizer_;
};

}  // namespace

BaselineResult RunNfs(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  Controller controller(dataset.NumFeatures(), DeriveSeed(config.seed, 2));
  double reward_baseline = 0.0;
  int reward_count = 0;

  const int episodes = std::max(4, config.iterations / 2);
  for (int episode = 0; episode < episodes; ++episode) {
    FeatureSpaceConfig fs;
    fs.max_features = std::max(kFeatureBudget, dataset.NumFeatures() + 8);
    FeatureSpace space(dataset, fs);

    std::vector<Decision> decisions;
    for (int f = 0; f < dataset.NumFeatures(); ++f) {
      int prev = kStopAction;
      int current = f;  // index of the evolving column for this chain
      for (int slot = 0; slot < kMaxChain; ++slot) {
        int action = controller.Sample(f, slot, prev, &run.rng);
        decisions.push_back({f, slot, prev, action});
        if (action == kStopAction) break;
        OpType op = OpFromIndex(action);
        std::vector<int> tail;
        if (!IsUnary(op)) {
          tail = {run.rng.UniformInt(dataset.NumFeatures())};
        }
        int before = space.NumColumns();
        int added = space.ApplyOperation(op, {current}, tail, &run.rng);
        if (added > 0 && space.NumColumns() > before) {
          current = space.NumColumns() - 1;  // chain continues on the result
        }
        prev = action;
      }
    }

    double score = run.evaluator.Evaluate(space.ToDataset());
    if (score > run.result.score) {
      run.result.score = score;
      run.result.best_dataset = space.ToDataset();
    }
    double reward = score - run.result.base_score;
    ++reward_count;
    reward_baseline += (reward - reward_baseline) / reward_count;
    double advantage = reward - reward_baseline;
    for (const Decision& decision : decisions) {
      controller.Update(decision, advantage);
    }
  }
  return run.Finish();
}

}  // namespace fastft
