// Single LSTM layer with full backpropagation-through-time.
//
// Weight layout: W is (4H × (H+D)) with gate blocks ordered [i, f, g, o];
// b is (4H × 1). Forward caches the sequence's activations for Backward in
// flat per-layer buffers that are reused across calls.
//
// Backward accumulates dW as one blocked product over the whole sequence
// (simd::TransposeMatMul with accumulate) instead of one rank-1 update per
// timestep. Each dW element is still one chain over t in descending order
// starting from +0, so the result is bit-equal to the streamed per-timestep
// loop whenever the grads are +0 on entry, as they are after every
// optimizer step. That equality also needs W and every z_t finite (an
// exactly-zero gate gradient times Inf is NaN, which the streamed loop's
// `dg == 0` skip never forms); Forward records whether every pre-activation
// was finite, and when one was not, Backward runs the streamed loop.

#pragma once

#include <vector>

#include "nn/matrix.h"

namespace fastft {
class Rng;

namespace nn {

class LstmLayer {
 public:
  LstmLayer() = default;
  LstmLayer(int input_dim, int hidden_dim, Rng* rng);

  /// x: (len × input_dim) → hidden states (len × hidden_dim), h0 = c0 = 0.
  Matrix Forward(const Matrix& x);

  /// Inference-only forward continuing from an explicit state: *h / *c
  /// (size hidden_dim; zeros = the t0 state) are consumed and updated in
  /// place; returns hidden states for the rows of x. Per-timestep
  /// arithmetic is identical to Forward, so chunked encoding of a sequence
  /// is bit-identical to one Forward over the whole sequence. Writes no
  /// backward caches — safe to call concurrently.
  Matrix ForwardInfer(const Matrix& x, std::vector<double>* h,
                      std::vector<double>* c) const;

  /// dh: gradient wrt every hidden state (len × hidden_dim) of the last
  /// Forward. Adds the parameter grads into w/b grads; returns dx
  /// (len × input_dim). The added grads are bit-equal to the streamed
  /// per-timestep order when the grads are +0 on entry (see above).
  Matrix Backward(const Matrix& dh);

  void CollectParams(std::vector<Parameter*>* params);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

  /// Bytes held by parameters (weights + biases), excluding gradients.
  size_t ParameterBytes() const;
  /// Bytes of the activations Forward caches for a sequence of length
  /// `len`: z, the four gates, c and tanh(c) per timestep, plus c_{-1}.
  size_t ActivationBytes(int len) const;

 private:
  int input_dim_ = 0;
  int hidden_dim_ = 0;
  Parameter w_;  // (4H × (H+D))
  Parameter b_;  // (4H × 1)

  // Caches of the last Forward, for a sequence of len_ timesteps.
  int len_ = 0;
  /// True when every pre-activation W·z_t + b was finite, which implies W,
  /// b and every z_t are finite.
  bool pre_finite_ = true;
  /// (len × (H+D)); row len−1−t holds z_t = [h_{t−1}; x_t], the descending
  /// order the weight-gradient product consumes.
  std::vector<double> z_;
  /// (len × 4H); row t holds the activated gates [i; f; g; o] of timestep t.
  std::vector<double> gates_;
  /// ((len+1) × H); row t+1 holds c_t and row 0 holds c_{−1} = 0.
  std::vector<double> c_;
  /// (len × H); row t holds tanh(c_t).
  std::vector<double> tanh_c_;
};

}  // namespace nn
}  // namespace fastft

