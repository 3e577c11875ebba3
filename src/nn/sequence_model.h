// Sequence-to-scalar model: Embedding → stacked backbone → pooling → MLP.
//
// This is the shared architecture of the Performance Predictor and both
// Novelty Estimator networks (paper §III-C): 2 stacked LSTM layers with
// embedding dim 32, followed by fully-connected layers. The backbone is
// swappable (LSTM / RNN / Transformer) for the Fig. 8 ablation.
//
// Two forward paths exist:
//   * Forward/TrainStep — the training path; caches activations for
//     backprop and must not be called concurrently.
//   * Predict/EncodeInfer — the inference path of the estimation hot loop;
//     bit-identical values, no training caches, and (for LSTM/RNN
//     backbones) resumes from a prefix-state cache so a sequence that
//     extends a previously-seen prefix re-encodes only the appended tokens.
//     The cache is invalidated on every weight update. Safe to call
//     concurrently, but the cache's counters then follow the schedule; the
//     engine calls it from one thread, in step order.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/embedding.h"
#include "nn/encode_cache.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/serialization.h"
#include "nn/transformer.h"

namespace fastft {
namespace nn {

enum class Backbone { kLstm, kRnn, kTransformer };

const char* BackboneName(Backbone backbone);

struct SequenceModelConfig {
  Backbone backbone = Backbone::kLstm;
  int vocab_size = 64;
  int embed_dim = 32;
  int hidden_dim = 32;
  int num_layers = 2;
  /// Hidden widths of the FC head after pooling (output width appended last).
  /// Paper: predictor head {16, 1}; novelty estimator head {16, 4, 1};
  /// novelty target head {1}.
  std::vector<int> head_dims = {16, 1};
  /// When > 0, head weights are orthogonally initialized with this gain
  /// (the paper's "coupled orthogonal initialization scaling factor", 16.0).
  double orthogonal_gain = 0.0;
  /// Byte cap of the inference prefix-state cache (0 disables). Only
  /// recurrent backbones reuse prefix states; the transformer re-encodes
  /// in full either way.
  size_t prefix_cache_bytes = 256 * 1024;
  uint64_t seed = 97;
};

class SequenceModel {
 public:
  explicit SequenceModel(const SequenceModelConfig& config);

  SequenceModel(const SequenceModel&) = delete;
  SequenceModel& operator=(const SequenceModel&) = delete;

  /// Scalar output for a token sequence (first head output if head is
  /// wider). Training path: caches activations for TrainStep.
  double Forward(const std::vector<int>& tokens);

  /// Inference-only scalar output: bit-identical to Forward, resumes from
  /// the prefix-state cache, safe to call concurrently.
  double Predict(const std::vector<int>& tokens) const;

  /// Pooled backbone representation (no head), for embedding-space uses
  /// (novelty distance metric, DIFER search). Inference path (cached).
  std::vector<double> Encode(const std::vector<int>& tokens) const;

  /// Accumulates gradients of 0.5*(Forward(tokens) - target)^2.
  /// Returns the squared error. Call optimizer Step() to apply.
  /// Guard: when the prediction or target is non-finite the step skips the
  /// backward pass entirely (no gradient is accumulated, parameters stay
  /// finite), increments non_finite_skips(), and returns the (non-finite)
  /// squared error so callers can quarantine the diverged model.
  double TrainStep(const std::vector<int>& tokens, double target);

  /// Number of TrainStep calls skipped because of a non-finite loss.
  int64_t non_finite_skips() const { return non_finite_skips_; }

  /// Gradient step helper: clip + Adam step over this model's params.
  /// Weights change, so the prefix-state cache is invalidated.
  void ApplyStep();

  std::vector<Parameter*> Params();

  /// Embeds weights, optimizer moments, and the non-finite-skip counter in
  /// a snapshot payload (architecture is NOT written; the restoring model
  /// must be constructed with the identical config).
  void SaveState(common::BinaryWriter* writer);
  /// Restores a SaveState payload; shape mismatches fail the reader. The
  /// prefix-state cache is invalidated (cached states encode old weights).
  void LoadState(common::BinaryReader* reader);

  /// Counters of the inference prefix-state cache.
  PrefixCacheStats prefix_cache_stats() const { return prefix_cache_.stats(); }

  size_t ParameterBytes() const;
  size_t ActivationBytes(int sequence_length) const;

  const SequenceModelConfig& config() const { return config_; }

 private:
  Matrix RunBackbone(const Matrix& embedded);
  /// Pools backbone output (len × hidden) to (1 × hidden).
  Matrix Pool(const Matrix& hidden) const;
  /// Distributes pooled gradient back over timesteps.
  Matrix Unpool(const Matrix& d_pooled, int len) const;

  /// True when the backbone's state after a prefix summarizes it exactly
  /// (LSTM/RNN); false for the transformer, whose attention is global.
  bool SupportsIncremental() const {
    return config_.backbone != Backbone::kTransformer;
  }
  /// Fresh all-zeros state (the t0 state of Forward).
  EncodeState ZeroState() const;
  /// Encodes tokens[state->length, upto) continuing from *state, updating
  /// it in place. Recurrent backbones only.
  void AdvanceState(const std::vector<int>& tokens, int upto,
                    EncodeState* state) const;
  /// Pooled (1 × hidden) representation via the inference path, consulting
  /// and feeding the prefix-state cache.
  Matrix InferencePooled(const std::vector<int>& tokens) const;

  SequenceModelConfig config_;
  Embedding embedding_;
  std::vector<LstmLayer> lstm_layers_;
  std::vector<RnnLayer> rnn_layers_;
  std::vector<TransformerBlock> transformer_layers_;
  Mlp head_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  mutable PrefixStateCache prefix_cache_;
  int last_len_ = 0;
  int64_t non_finite_skips_ = 0;
};

}  // namespace nn
}  // namespace fastft

