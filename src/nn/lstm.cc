#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd_kernels.h"
#include "nn/init.h"

namespace fastft {
namespace nn {
namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

LstmLayer::LstmLayer(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(XavierInit(4 * hidden_dim, hidden_dim + input_dim, rng)),
      b_(Matrix(4 * hidden_dim, 1)) {
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (int r = hidden_dim; r < 2 * hidden_dim; ++r) b_.value(r, 0) = 1.0;
}

Matrix LstmLayer::Forward(const Matrix& x) {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  const size_t rows = static_cast<size_t>(len);
  len_ = len;
  z_.resize(rows * zdim);
  gates_.resize(rows * 4 * h);
  c_.assign((rows + 1) * h, 0.0);
  tanh_c_.resize(rows * h);
  Matrix hidden(len, h);

  bool pre_finite = true;
  for (int t = 0; t < len; ++t) {
    double* z = z_.data() + static_cast<size_t>(len - 1 - t) * zdim;
    for (int j = 0; j < h; ++j) z[j] = t > 0 ? hidden(t - 1, j) : 0.0;
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);

    // All four gate pre-activations in one (4h × zdim) · z matvec: W is laid
    // out [i; f; g; o] row blocks and b_ is a contiguous column. The gates
    // are then activated in place.
    double* gate = gates_.data() + static_cast<size_t>(t) * 4 * h;
    simd::MatVec(w_.value.data(), b_.value.data(), z, gate, 4 * h, zdim);
    for (int r = 0; r < 4 * h; ++r) pre_finite &= std::isfinite(gate[r]);
    const double* c_prev = c_.data() + static_cast<size_t>(t) * h;
    double* c = c_.data() + static_cast<size_t>(t + 1) * h;
    double* tanh_c = tanh_c_.data() + static_cast<size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      const double i = Sigmoid(gate[j]);
      const double f = Sigmoid(gate[h + j]);
      const double g = std::tanh(gate[2 * h + j]);
      const double o = Sigmoid(gate[3 * h + j]);
      gate[j] = i;
      gate[h + j] = f;
      gate[2 * h + j] = g;
      gate[3 * h + j] = o;
      c[j] = f * c_prev[j] + i * g;
      tanh_c[j] = std::tanh(c[j]);
      hidden(t, j) = o * tanh_c[j];
    }
  }
  pre_finite_ = pre_finite;
  return hidden;
}

Matrix LstmLayer::ForwardInfer(const Matrix& x, std::vector<double>* h_state,
                               std::vector<double>* c_state) const {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  FASTFT_CHECK_EQ(static_cast<int>(h_state->size()), h);
  FASTFT_CHECK_EQ(static_cast<int>(c_state->size()), h);
  Matrix hidden(len, h);

  std::vector<double>& h_prev = *h_state;
  std::vector<double>& c_prev = *c_state;
  std::vector<double> z(zdim), c_next(h), pre(4 * h);
  for (int t = 0; t < len; ++t) {
    for (int j = 0; j < h; ++j) z[j] = h_prev[j];
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
    simd::MatVec(w_.value.data(), b_.value.data(), z.data(), pre.data(),
                 4 * h, zdim);
    for (int j = 0; j < h; ++j) {
      double gi = Sigmoid(pre[j]);
      double gf = Sigmoid(pre[h + j]);
      double gg = std::tanh(pre[2 * h + j]);
      double go = Sigmoid(pre[3 * h + j]);
      c_next[j] = gf * c_prev[j] + gi * gg;
      hidden(t, j) = go * std::tanh(c_next[j]);
      h_prev[j] = hidden(t, j);
    }
    c_prev = c_next;
  }
  return hidden;
}

Matrix LstmLayer::Backward(const Matrix& dh_all) {
  const int len = len_;
  FASTFT_CHECK_EQ(dh_all.rows(), len);
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  Matrix dx(len, input_dim_);

  std::vector<double> dh_next(h, 0.0), dc_next(h, 0.0), dz(zdim);
  // Pre-activation gradients; row s holds timestep len−1−s, the row order
  // of z_, so dW += dgatesᵀ · z is one product over the sequence.
  std::vector<double> dgates(static_cast<size_t>(len) * 4 * h);
  for (int t = len - 1; t >= 0; --t) {
    const double* gate = gates_.data() + static_cast<size_t>(t) * 4 * h;
    const double* gi = gate;
    const double* gf = gate + h;
    const double* gg = gate + 2 * h;
    const double* go = gate + 3 * h;
    const double* c_prev = c_.data() + static_cast<size_t>(t) * h;
    const double* tanh_c = tanh_c_.data() + static_cast<size_t>(t) * h;
    const size_t row = static_cast<size_t>(len - 1 - t);
    double* dg = dgates.data() + row * 4 * h;
    for (int j = 0; j < h; ++j) {
      double dh = dh_all(t, j) + dh_next[j];
      double d_o = dh * tanh_c[j];
      double dc = dh * go[j] * (1.0 - tanh_c[j] * tanh_c[j]) + dc_next[j];
      double d_i = dc * gg[j];
      double d_g = dc * gi[j];
      double d_f = dc * c_prev[j];
      dc_next[j] = dc * gf[j];
      dg[j] = d_i * gi[j] * (1.0 - gi[j]);
      dg[h + j] = d_f * gf[j] * (1.0 - gf[j]);
      dg[2 * h + j] = d_g * (1.0 - gg[j] * gg[j]);
      dg[3 * h + j] = d_o * go[j] * (1.0 - go[j]);
    }
    if (pre_finite_) {
      // db += dgates; dz = Wᵀ · dgates, each dz[k] the ascending-r chain.
      // With W and z finite, a gate gradient of exactly 0 adds ±0 to chains
      // that start at +0, which changes no bit, so no skip is needed.
      simd::Add(dg, b_.grad.data(), 4 * h);
      simd::TransposeMatMul(dg, w_.value.data(), dz.data(), 1, 4 * h, zdim,
                            /*accumulate=*/false);
    } else {
      // Streamed fallback for non-finite W or z: the dg == 0 skip keeps a
      // saturated gate's 0 · Inf from turning dW and dz into NaN.
      const double* z = z_.data() + row * zdim;
      std::fill(dz.begin(), dz.end(), 0.0);
      for (int r = 0; r < 4 * h; ++r) {
        const double dgr = dg[r];
        if (dgr == 0.0) continue;
        b_.grad(r, 0) += dgr;
        simd::Axpy(dgr, z, w_.grad.data() + static_cast<size_t>(r) * zdim,
                   zdim);
        simd::Axpy(dgr, w_.value.data() + static_cast<size_t>(r) * zdim,
                   dz.data(), zdim);
      }
    }
    for (int j = 0; j < h; ++j) dh_next[j] = dz[j];
    for (int j = 0; j < input_dim_; ++j) dx(t, j) = dz[h + j];
  }
  if (pre_finite_) {
    // dW(r, k) += Σ_s dgates(s, r) · z(s, k), s ascending = t descending.
    simd::TransposeMatMul(dgates.data(), z_.data(), w_.grad.data(), 4 * h,
                          len, zdim, /*accumulate=*/true);
  }
  return dx;
}

void LstmLayer::CollectParams(std::vector<Parameter*>* params) {
  params->push_back(&w_);
  params->push_back(&b_);
}

size_t LstmLayer::ParameterBytes() const {
  return (w_.value.size() + b_.value.size()) * sizeof(double);
}

size_t LstmLayer::ActivationBytes(int len) const {
  // z, i, f, g, o, c, tanh_c per timestep, plus the c_{-1} row.
  const size_t h = static_cast<size_t>(hidden_dim_);
  const size_t per_step = static_cast<size_t>(input_dim_) + 7u * h;
  return (per_step * static_cast<size_t>(len) + h) * sizeof(double);
}

}  // namespace nn
}  // namespace fastft
