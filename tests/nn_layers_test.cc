// Direct tests for the individual nn layers (shapes, known values, caches).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd_kernels.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/rnn.h"
#include "nn/transformer.h"

namespace fastft {
namespace nn {
namespace {

TEST(LinearTest, ForwardKnownValues) {
  Rng rng(1);
  Linear layer(2, 1, &rng);
  layer.weight().value(0, 0) = 2.0;
  layer.weight().value(1, 0) = -1.0;
  layer.bias().value(0, 0) = 0.5;
  Matrix x(1, 2);
  x(0, 0) = 3.0;
  x(0, 1) = 4.0;
  Matrix y = layer.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 2.0 * 3.0 - 1.0 * 4.0 + 0.5);
}

TEST(LinearTest, BatchedForward) {
  Rng rng(2);
  Linear layer(3, 4, &rng);
  Matrix x = Matrix::Randn(5, 3, 1.0, &rng);
  Matrix y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 4);
}

TEST(LinearTest, BackwardShapesAndAccumulation) {
  Rng rng(3);
  Linear layer(3, 2, &rng);
  Matrix x = Matrix::Randn(4, 3, 1.0, &rng);
  layer.Forward(x);
  Matrix dy(4, 2, 1.0);
  Matrix dx = layer.Backward(dy);
  EXPECT_EQ(dx.rows(), 4);
  EXPECT_EQ(dx.cols(), 3);
  double grad_norm_once = layer.weight().grad.Norm();
  EXPECT_GT(grad_norm_once, 0.0);
  // Gradients accumulate across Backward calls until zeroed.
  layer.Forward(x);
  layer.Backward(dy);
  EXPECT_NEAR(layer.weight().grad.Norm(), 2.0 * grad_norm_once, 1e-9);
  layer.weight().ZeroGrad();
  EXPECT_DOUBLE_EQ(layer.weight().grad.Norm(), 0.0);
}

TEST(ReluTest, ForwardClampsAndBackwardMasks) {
  Relu relu;
  Matrix x(1, 3);
  x(0, 0) = -2.0;
  x(0, 1) = 0.0;
  x(0, 2) = 3.0;
  Matrix y = relu.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 3.0);
  Matrix dy(1, 3, 1.0);
  Matrix dx = relu.Backward(dy);
  EXPECT_DOUBLE_EQ(dx(0, 0), 0.0);  // negative input: gradient blocked
  EXPECT_DOUBLE_EQ(dx(0, 1), 0.0);  // zero input: subgradient 0 chosen
  EXPECT_DOUBLE_EQ(dx(0, 2), 1.0);
}

TEST(EmbeddingTest, LookupMatchesTable) {
  Rng rng(4);
  Embedding emb(10, 4, &rng);
  Matrix out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(out(0, c), out(1, c));  // same id, same row
  }
}

TEST(EmbeddingTest, OutOfRangeIdsClamped) {
  Rng rng(5);
  Embedding emb(10, 4, &rng);
  Matrix hi = emb.Forward({99});
  Matrix top = emb.Forward({9});
  for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(hi(0, c), top(0, c));
  Matrix lo = emb.Forward({-5});
  Matrix bottom = emb.Forward({0});
  for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(lo(0, c), bottom(0, c));
}

TEST(EmbeddingTest, RepeatedIdsAccumulateGradient) {
  Rng rng(6);
  Embedding emb(10, 2, &rng);
  emb.Forward({5, 5});
  Matrix dy(2, 2, 1.0);
  std::vector<Parameter*> params;
  emb.CollectParams(&params);
  params[0]->ZeroGrad();
  emb.Backward(dy);
  // Row 5 receives the gradient of both positions.
  EXPECT_DOUBLE_EQ(params[0]->grad(5, 0), 2.0);
  EXPECT_DOUBLE_EQ(params[0]->grad(4, 0), 0.0);
}

TEST(LstmTest, OutputShapesAndBoundedness) {
  Rng rng(7);
  LstmLayer lstm(4, 6, &rng);
  Matrix x = Matrix::Randn(10, 4, 1.0, &rng);
  Matrix h = lstm.Forward(x);
  EXPECT_EQ(h.rows(), 10);
  EXPECT_EQ(h.cols(), 6);
  // h = o * tanh(c): every activation is in (-1, 1).
  for (int r = 0; r < h.rows(); ++r) {
    for (int c = 0; c < h.cols(); ++c) {
      EXPECT_GT(h(r, c), -1.0);
      EXPECT_LT(h(r, c), 1.0);
    }
  }
}

TEST(LstmTest, StateCarriesAcrossTimesteps) {
  Rng rng(8);
  LstmLayer lstm(2, 4, &rng);
  // Same input at two timesteps → different hidden states (memory).
  Matrix x(2, 2, 0.7);
  Matrix h = lstm.Forward(x);
  bool differs = false;
  for (int c = 0; c < 4; ++c) differs |= (h(0, c) != h(1, c));
  EXPECT_TRUE(differs);
}

// --- Streamed-backward oracle ----------------------------------------------

/// Outputs of one LSTM forward + backward over a sequence.
struct LstmPass {
  Matrix hidden, dx;
  std::vector<double> dw, db;
  int zero_gate_grads = 0;  // gate gradients the streamed loop skipped
};

double OracleSigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Test-local copy of the per-timestep LSTM backward that the blocked
/// weight-gradient product replaced: for every nonzero gate gradient, one
/// Axpy into its dW row and one into dz, timestep by timestep (t
/// descending), from grads at +0. Its forward pass repeats the layer's
/// arithmetic.
LstmPass StreamedOracle(const Matrix& w, const Matrix& b, const Matrix& x,
                        const Matrix& dh_all, int h) {
  const int len = x.rows();
  const int in = x.cols();
  const int zdim = h + in;
  LstmPass pass;
  pass.hidden = Matrix(len, h);
  pass.dx = Matrix(len, in);
  pass.dw.assign(static_cast<size_t>(4 * h) * zdim, 0.0);
  pass.db.assign(4 * h, 0.0);
  std::vector<std::vector<double>> z(len), i(len), f(len), g(len), o(len),
      c(len), tanh_c(len), c_prev(len);
  std::vector<double> h_prev(h, 0.0), c_last(h, 0.0), pre(4 * h);
  for (int t = 0; t < len; ++t) {
    z[t] = h_prev;
    for (int j = 0; j < in; ++j) z[t].push_back(x(t, j));
    c_prev[t] = c_last;
    simd::MatVec(w.data(), b.data(), z[t].data(), pre.data(), 4 * h, zdim);
    for (auto* v : {&i[t], &f[t], &g[t], &o[t], &c[t], &tanh_c[t]}) {
      v->resize(h);
    }
    for (int j = 0; j < h; ++j) {
      i[t][j] = OracleSigmoid(pre[j]);
      f[t][j] = OracleSigmoid(pre[h + j]);
      g[t][j] = std::tanh(pre[2 * h + j]);
      o[t][j] = OracleSigmoid(pre[3 * h + j]);
      c[t][j] = f[t][j] * c_last[j] + i[t][j] * g[t][j];
      tanh_c[t][j] = std::tanh(c[t][j]);
      pass.hidden(t, j) = o[t][j] * tanh_c[t][j];
      h_prev[j] = pass.hidden(t, j);
    }
    c_last = c[t];
  }
  std::vector<double> dh_next(h, 0.0), dc_next(h, 0.0), dgates(4 * h);
  for (int t = len - 1; t >= 0; --t) {
    for (int j = 0; j < h; ++j) {
      double dh = dh_all(t, j) + dh_next[j];
      double d_o = dh * tanh_c[t][j];
      double dc = dh * o[t][j] * (1.0 - tanh_c[t][j] * tanh_c[t][j]) +
                  dc_next[j];
      double d_i = dc * g[t][j];
      double d_g = dc * i[t][j];
      double d_f = dc * c_prev[t][j];
      dc_next[j] = dc * f[t][j];
      dgates[j] = d_i * i[t][j] * (1.0 - i[t][j]);
      dgates[h + j] = d_f * f[t][j] * (1.0 - f[t][j]);
      dgates[2 * h + j] = d_g * (1.0 - g[t][j] * g[t][j]);
      dgates[3 * h + j] = d_o * o[t][j] * (1.0 - o[t][j]);
    }
    std::vector<double> dz(zdim, 0.0);
    for (int r = 0; r < 4 * h; ++r) {
      double dg = dgates[r];
      if (dg == 0.0) {
        ++pass.zero_gate_grads;
        continue;
      }
      pass.db[r] += dg;
      simd::Axpy(dg, z[t].data(),
                 pass.dw.data() + static_cast<size_t>(r) * zdim, zdim);
      simd::Axpy(dg, w.data() + static_cast<size_t>(r) * zdim, dz.data(),
                 zdim);
    }
    for (int j = 0; j < h; ++j) dh_next[j] = dz[j];
    for (int j = 0; j < in; ++j) pass.dx(t, j) = dz[h + j];
  }
  return pass;
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

enum class OracleCase { kRandom, kSaturatingBiases, kInfiniteWeight };

/// Runs the layer and the oracle on one sequence and compares every output
/// bit for bit.
void ExpectBackwardMatchesOracle(OracleCase which, uint64_t seed, int len,
                                 int in, int h) {
  Rng rng(seed);
  LstmLayer layer(in, h, &rng);
  std::vector<Parameter*> params;
  layer.CollectParams(&params);
  Parameter* w = params[0];
  Parameter* b = params[1];
  Matrix x = Matrix::Randn(len, in, 1.0, &rng);
  Matrix dh = Matrix::Randn(len, h, 1.0, &rng);
  if (which == OracleCase::kSaturatingBiases) {
    // Biases of ±50 pin sigmoid and tanh to exactly 0 or 1 (or ±1), so
    // those gates' gradients are exactly 0.
    for (int r = 0; r < 4 * h; r += 3) b->value(r, 0) = r % 2 == 0 ? 50 : -50;
  }
  if (which == OracleCase::kInfiniteWeight) {
    // Input-gate row 0 sees a +Inf weight on input column 0, which is
    // positive at every timestep: i = sigmoid(+Inf) = 1 exactly, the
    // output stays finite and that row's gate gradient is exactly 0.
    w->value(0, h) = std::numeric_limits<double>::infinity();
    for (int t = 0; t < len; ++t) x(t, 0) = std::abs(x(t, 0)) + 0.25;
  }
  const std::string label = "seed " + std::to_string(seed) + " len " +
                            std::to_string(len) + " " + std::to_string(in) +
                            "x" + std::to_string(h) + " case " +
                            std::to_string(static_cast<int>(which)) +
                            " simd " + simd::ActiveBackend();

  const LstmPass expected = StreamedOracle(w->value, b->value, x, dh, h);
  w->ZeroGrad();
  b->ZeroGrad();
  const Matrix hidden = layer.Forward(x);
  const Matrix dx = layer.Backward(dh);

  if (which != OracleCase::kRandom) {
    EXPECT_GT(expected.zero_gate_grads, 0) << label;
  }
  if (which == OracleCase::kInfiniteWeight) {
    for (size_t k = 0; k < dx.size(); ++k) {
      ASSERT_TRUE(std::isfinite(dx.data()[k])) << label;
    }
  }
  EXPECT_TRUE(SameBits(hidden.data(), expected.hidden.data(), hidden.size()))
      << "hidden, " << label;
  EXPECT_TRUE(SameBits(dx.data(), expected.dx.data(), dx.size()))
      << "dx, " << label;
  EXPECT_TRUE(SameBits(w->grad.data(), expected.dw.data(), expected.dw.size()))
      << "dW, " << label;
  EXPECT_TRUE(SameBits(b->grad.data(), expected.db.data(), expected.db.size()))
      << "db, " << label;
}

TEST(LstmLayerTest, BackwardMatchesStreamedOracle) {
  const bool was_enabled = simd::Enabled();
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    for (OracleCase which : {OracleCase::kRandom, OracleCase::kSaturatingBiases,
                             OracleCase::kInfiniteWeight}) {
      for (uint64_t seed : {1, 2, 3}) {
        for (int len : {1, 2, 53, 130}) {
          // The model's shape (zdim 64) and an odd one that reaches the
          // kernels' tail paths.
          ExpectBackwardMatchesOracle(which, seed, len, 32, 32);
          ExpectBackwardMatchesOracle(which, seed, len, 3, 5);
        }
      }
    }
  }
  simd::SetEnabled(was_enabled);
}

TEST(RnnTest, TanhBounded) {
  Rng rng(9);
  RnnLayer rnn(3, 5, &rng);
  Matrix x = Matrix::Randn(8, 3, 3.0, &rng);
  Matrix h = rnn.Forward(x);
  for (int r = 0; r < h.rows(); ++r) {
    for (int c = 0; c < h.cols(); ++c) {
      EXPECT_GE(h(r, c), -1.0);
      EXPECT_LE(h(r, c), 1.0);
    }
  }
}

TEST(TransformerTest, PreservesShape) {
  Rng rng(10);
  TransformerBlock block(6, &rng);
  Matrix x = Matrix::Randn(5, 6, 1.0, &rng);
  Matrix y = block.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 6);
}

TEST(TransformerTest, SingleTokenSequenceWorks) {
  Rng rng(11);
  TransformerBlock block(4, &rng);
  Matrix x = Matrix::Randn(1, 4, 1.0, &rng);
  Matrix y = block.Forward(x);
  EXPECT_EQ(y.rows(), 1);
  Matrix dx = block.Backward(Matrix(1, 4, 1.0));
  EXPECT_EQ(dx.rows(), 1);
}

TEST(MlpTest, HeadShapes) {
  Rng rng(12);
  MlpConfig cfg;
  cfg.dims = {6, 4, 2, 1};
  Mlp mlp(cfg, &rng);
  EXPECT_EQ(mlp.in_dim(), 6);
  EXPECT_EQ(mlp.out_dim(), 1);
  Matrix y = mlp.Forward(Matrix::Randn(3, 6, 1.0, &rng));
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 1);
}

TEST(MlpTest, ParameterBytesMatchesArchitecture) {
  Rng rng(13);
  MlpConfig cfg;
  cfg.dims = {4, 3, 1};
  Mlp mlp(cfg, &rng);
  // (4*3 + 3) + (3*1 + 1) = 19 doubles.
  EXPECT_EQ(mlp.ParameterBytes(), 19u * sizeof(double));
}

TEST(MemoryAccountingTest, LstmVsRnnPerStepCosts) {
  Rng rng(14);
  LstmLayer lstm(8, 8, &rng);
  RnnLayer rnn(8, 8, &rng);
  // LSTM caches 4 gates + cell traces; far more per step than the RNN.
  EXPECT_GT(lstm.ActivationBytes(10), 2 * rnn.ActivationBytes(10));
  EXPECT_GT(lstm.ParameterBytes(), 3 * rnn.ParameterBytes());
}

}  // namespace
}  // namespace nn
}  // namespace fastft
