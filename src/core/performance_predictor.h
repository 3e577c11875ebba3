// Performance Predictor φ(T) (paper §III-C, Eq. 3).
//
// LSTM (2 × 32) + FC {16, 1} over transformation-sequence tokens, trained on
// (sequence, downstream score) pairs with MSE. One forward pass replaces a
// full k-fold downstream evaluation — the paper's answer to the runtime
// bottleneck (C1).
//
// Scoring goes through the model's inference path: bit-identical to the
// training forward, backed by a prefix-state cache (appended tokens only are
// re-encoded) and safe to fan out across threads. PredictBatch scores
// independent sequences over the shared pool; any thread count reproduces
// the serial scores bit for bit because each output is a self-contained
// deterministic computation.

#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequence_model.h"

namespace fastft {

class Rng;

/// A (transformation sequence, achieved score) training pair.
struct SequenceRecord {
  std::vector<int> tokens;
  double score = 0.0;

  bool operator==(const SequenceRecord&) const = default;
};

struct PredictorConfig {
  nn::Backbone backbone = nn::Backbone::kLstm;
  int vocab_size = 64;
  int embed_dim = 32;
  int hidden_dim = 32;
  int num_layers = 2;
  double learning_rate = 2e-3;
  /// Byte cap of the inference prefix-state cache (0 disables).
  size_t prefix_cache_bytes = 256 * 1024;
  uint64_t seed = 51;
};

class PerformancePredictor {
 public:
  explicit PerformancePredictor(const PredictorConfig& config);

  /// Estimated downstream performance of the sequence (cached inference).
  double Predict(const std::vector<int>& tokens) const;

  /// Scores independent sequences, fanning over the shared thread pool
  /// with up to `num_threads` executors (<= 1 runs inline). Result order
  /// matches input order; every entry is bit-identical to Predict.
  std::vector<double> PredictBatch(
      const std::vector<std::vector<int>>& batch, int num_threads) const;

  /// Trains for `epochs` passes over `records` (cold start, Eq. 3).
  /// Returns the final mean squared error.
  double Fit(const std::vector<SequenceRecord>& records, int epochs, Rng* rng);

  /// One incremental pass over a finetuning batch (Algorithm 2 line 22).
  double Finetune(const std::vector<SequenceRecord>& records);

  /// Pooled sequence embedding (used by the novelty-distance metric of
  /// Fig. 14 and by embedding-space baselines). Cached inference path.
  std::vector<double> Encode(const std::vector<int>& tokens) const;

  /// Persists / restores trained weights (same PredictorConfig required).
  Status Save(const std::string& path) { return model_.Save(path); }
  Status Load(const std::string& path) { return model_.Load(path); }

  /// Embeds / restores weights + optimizer state in a checkpoint payload
  /// (same PredictorConfig required; the model's prefix cache is
  /// invalidated on load).
  void SaveState(common::BinaryWriter* writer) { model_.SaveState(writer); }
  void LoadState(common::BinaryReader* reader) { model_.LoadState(reader); }

  /// Counters of the inference prefix-state cache.
  nn::PrefixCacheStats cache_stats() const {
    return model_.prefix_cache_stats();
  }

  size_t ParameterBytes() const { return model_.ParameterBytes(); }
  size_t ActivationBytes(int len) const { return model_.ActivationBytes(len); }
  nn::Backbone backbone() const { return model_.config().backbone; }

 private:
  nn::SequenceModel model_;
};

}  // namespace fastft

