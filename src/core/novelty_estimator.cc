#include "core/novelty_estimator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fastft {
namespace {

nn::SequenceModelConfig TargetConfig(const NoveltyConfig& config) {
  nn::SequenceModelConfig mc;
  mc.backbone = config.backbone;
  mc.vocab_size = config.vocab_size;
  mc.embed_dim = config.embed_dim;
  mc.hidden_dim = config.hidden_dim;
  mc.num_layers = config.num_layers;
  mc.head_dims = {1};  // paper: target has 1 FC layer of width 1
  mc.orthogonal_gain = config.orthogonal_gain;
  mc.prefix_cache_bytes = config.prefix_cache_bytes;
  mc.seed = config.seed;
  return mc;
}

nn::SequenceModelConfig EstimatorConfig(const NoveltyConfig& config) {
  nn::SequenceModelConfig mc = TargetConfig(config);
  mc.head_dims = {16, 4, 1};  // paper: estimator head widths 16, 4, 1
  mc.orthogonal_gain = 0.0;
  // Independent stream: different seed decouples estimator from target.
  mc.seed = config.seed ^ 0x5DEECE66DULL;
  return mc;
}

}  // namespace

NoveltyEstimator::NoveltyEstimator(const NoveltyConfig& config)
    : target_(TargetConfig(config)), estimator_(EstimatorConfig(config)) {}

double NoveltyEstimator::Novelty(const std::vector<int>& tokens) const {
  FASTFT_TRACE_SPAN("novelty/estimate");
  double diff = estimator_.Predict(tokens) - target_.Predict(tokens);
  return diff * diff;
}

void NoveltyEstimator::UpdateRunningScale(double raw) {
  ++observations_;
  double delta = raw - running_mean_;
  running_mean_ += delta / static_cast<double>(observations_);
  running_var_ += (raw - running_mean_) * delta;
}

double NoveltyEstimator::NormalizedNovelty(const std::vector<int>& tokens) {
  const double raw = Novelty(tokens);
  // A diverged network must not poison the running scale; return the
  // non-finite score untouched so the caller's guard can quarantine us.
  if (!std::isfinite(raw)) return raw;
  UpdateRunningScale(raw);
  double var = observations_ > 1
                   ? running_var_ / static_cast<double>(observations_ - 1)
                   : 1.0;
  double scale = std::sqrt(std::max(var, 1e-12));
  return std::clamp(raw / (scale + 1e-9), 0.0, 10.0);
}

double NoveltyEstimator::Fit(const std::vector<std::vector<int>>& sequences,
                             int epochs, Rng* rng) {
  FASTFT_CHECK(rng != nullptr);
  if (sequences.empty()) return 0.0;
  // The target is frozen, so its outputs are loop invariants of the
  // epoch × item distillation loop; compute them once.
  std::vector<double> targets;
  targets.reserve(sequences.size());
  {
    FASTFT_TRACE_SPAN("novelty/distill_targets");
    for (const std::vector<int>& seq : sequences) {
      targets.push_back(target_.Predict(seq));
    }
  }
  double last = 0.0;
  std::vector<int> order(sequences.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(order);
    double loss = 0.0;
    for (int i : order) {
      loss += estimator_.TrainStep(sequences[i], targets[i]);
      estimator_.ApplyStep();
    }
    last = loss / static_cast<double>(sequences.size());
  }
  return last;
}

double NoveltyEstimator::Finetune(
    const std::vector<std::vector<int>>& sequences) {
  if (sequences.empty()) return 0.0;
  double loss = 0.0;
  for (const std::vector<int>& seq : sequences) {
    loss += estimator_.TrainStep(seq, target_.Predict(seq));
    estimator_.ApplyStep();
  }
  return loss / static_cast<double>(sequences.size());
}

std::vector<double> NoveltyEstimator::TargetEmbedding(
    const std::vector<int>& tokens) const {
  return target_.Encode(tokens);
}

nn::PrefixCacheStats NoveltyEstimator::cache_stats() const {
  nn::PrefixCacheStats stats = target_.prefix_cache_stats();
  stats.Merge(estimator_.prefix_cache_stats());
  return stats;
}

void NoveltyEstimator::SaveState(common::BinaryWriter* writer) {
  target_.SaveState(writer);
  estimator_.SaveState(writer);
  writer->WriteDouble(running_mean_);
  writer->WriteDouble(running_var_);
  writer->WriteI64(observations_);
}

void NoveltyEstimator::LoadState(common::BinaryReader* reader) {
  target_.LoadState(reader);
  estimator_.LoadState(reader);
  running_mean_ = reader->ReadDouble();
  running_var_ = reader->ReadDouble();
  observations_ = reader->ReadI64();
}

}  // namespace fastft
