// Novelty Estimator (paper §III-C, Eq. 4) — random network distillation.
//
// A frozen, orthogonally-initialized target network ψ⊥ and a trained
// estimator network ψ share the predictor's sequence encoder architecture
// (paper: target head FC{1}, estimator head FC{16,4,1}, orthogonal scaling
// factor 16). The estimator is trained to match the target on *visited*
// sequences, so the squared prediction error is small on familiar
// transformations and large on unencountered ones — that error is the
// novelty score feeding Eq. 6's exploration bonus.
//
// Scoring runs on the models' cached inference paths, on the calling thread
// and in input order: the running scale (Welford) and both networks' prefix
// caches then evolve identically at any engine thread count.

#pragma once

#include <cstdint>
#include <vector>

#include "core/performance_predictor.h"
#include "nn/sequence_model.h"

namespace fastft {

class Rng;

struct NoveltyConfig {
  nn::Backbone backbone = nn::Backbone::kLstm;
  int vocab_size = 64;
  int embed_dim = 32;
  int hidden_dim = 32;
  int num_layers = 2;
  /// Paper: "coupled orthogonal initialization scaling factor is 16.0".
  double orthogonal_gain = 16.0;
  double learning_rate = 2e-3;
  /// Byte cap of each network's inference prefix-state cache (0 disables).
  size_t prefix_cache_bytes = 256 * 1024;
  uint64_t seed = 73;
};

class NoveltyEstimator {
 public:
  explicit NoveltyEstimator(const NoveltyConfig& config);

  /// Raw novelty: (ψ(T) − ψ⊥(T))². Large on unvisited sequences.
  double Novelty(const std::vector<int>& tokens) const;

  /// Novelty normalized by a running scale so rewards stay O(1);
  /// clamped to [0, 10].
  double NormalizedNovelty(const std::vector<int>& tokens);

  /// Distills the estimator toward the frozen target on visited sequences.
  /// Returns the final mean distillation loss. The frozen target's outputs
  /// are computed once, before the first epoch (the target never changes,
  /// so per-epoch recomputation is redundant).
  double Fit(const std::vector<std::vector<int>>& sequences, int epochs,
             Rng* rng);

  /// One distillation pass over a finetuning batch (Algorithm 2 line 23).
  double Finetune(const std::vector<std::vector<int>>& sequences);

  /// Target-network embedding of a sequence (fixed by construction) — the
  /// representation used for the Fig. 14 novelty-distance metric.
  std::vector<double> TargetEmbedding(const std::vector<int>& tokens) const;

  /// Combined prefix-cache counters of the target and estimator networks.
  nn::PrefixCacheStats cache_stats() const;

  /// Embeds estimator weights/optimizer, the frozen target's weights (for
  /// safety against any init drift), and the Welford running scale in a
  /// checkpoint payload.
  void SaveState(common::BinaryWriter* writer);
  /// Restores a SaveState payload (same NoveltyConfig required).
  void LoadState(common::BinaryReader* reader);

 private:
  void UpdateRunningScale(double raw);

  nn::SequenceModel target_;
  nn::SequenceModel estimator_;
  double running_mean_ = 0.0;
  double running_var_ = 1.0;
  int64_t observations_ = 0;
};

}  // namespace fastft

