// Tests for the nn Matrix type, initializers, and optimizers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "common/simd_kernels.h"
#include "nn/init.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace fastft {
namespace nn {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_FALSE(m.Empty());
  EXPECT_TRUE(Matrix().Empty());
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix m(2, 3);
  int k = 0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) m(r, c) = ++k;
  }
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(2, 1), m(1, 2));
  Matrix tt = t.Transpose();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
  }
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(1);
  Matrix a = Matrix::Randn(3, 3, 1.0, &rng);
  Matrix eye(3, 3);
  for (int i = 0; i < 3; ++i) eye(i, i) = 1.0;
  Matrix c = a.MatMul(eye);
  for (int r = 0; r < 3; ++r) {
    for (int col = 0; col < 3; ++col) EXPECT_DOUBLE_EQ(c(r, col), a(r, col));
  }
}

TEST(MatrixTest, AddScaleNorm) {
  Matrix a(1, 2);
  a(0, 0) = 3;
  a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  Matrix b = a;
  b.ScaleInPlace(2.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 8.0);
  a.AddInPlace(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 9.0);
}

// Regression: the old kernel skipped a == 0.0 operands, silently turning
// 0 · Inf and 0 · NaN (both NaN) into 0 and hiding non-finite inputs.
TEST(MatrixTest, MatMulPropagatesNaNThroughZeroOperand) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a(1, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  Matrix b(2, 2);
  b(0, 0) = inf;
  b(0, 1) = nan;
  b(1, 0) = 2.0;
  b(1, 1) = 3.0;
  Matrix c = a.MatMul(b);
  EXPECT_TRUE(std::isnan(c(0, 0)));  // 0·Inf + 1·2
  EXPECT_TRUE(std::isnan(c(0, 1)));  // 0·NaN + 1·3
}

// The blocked kernels must reproduce the naive ascending-k summation order
// bit for bit; odd shapes straddle the block boundaries on purpose.
TEST(MatrixTest, BlockedKernelsBitIdenticalToMaterializedForms) {
  Rng rng(11);
  const int m = 13, k = 37, n = 21;
  Matrix a = Matrix::Randn(m, k, 1.0, &rng);
  Matrix b = Matrix::Randn(k, n, 1.0, &rng);

  Matrix into;
  a.MatMulInto(b, &into);
  Matrix product = a.MatMul(b);
  ASSERT_EQ(into.rows(), m);
  ASSERT_EQ(into.cols(), n);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) EXPECT_EQ(into(r, c), product(r, c));
  }

  // aᵀ · a_other without materializing the transpose.
  Matrix other = Matrix::Randn(m, n, 1.0, &rng);
  Matrix fused_t = a.TransposeMatMul(other);
  Matrix materialized_t = a.Transpose().MatMul(other);
  ASSERT_EQ(fused_t.rows(), k);
  ASSERT_EQ(fused_t.cols(), n);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(fused_t(r, c), materialized_t(r, c));
    }
  }

  // a · bᵀ without materializing the transpose. MatMulTranspose is a
  // family-B lane-split reduction (see common/simd_kernels.h), so the
  // reference is the lane-ordered dot, not MatMul(rhs.Transpose()) — the
  // two differ in float order by design. The kernel's own scalar/vector
  // identity is covered by simd_kernels_test.
  Matrix rhs = Matrix::Randn(n, k, 1.0, &rng);
  Matrix fused_bt = a.MatMulTranspose(rhs);
  ASSERT_EQ(fused_bt.rows(), m);
  ASSERT_EQ(fused_bt.cols(), n);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      double lanes[4] = {0.0, 0.0, 0.0, 0.0};
      for (int t = 0; t < k; ++t) lanes[t % 4] += a(r, t) * rhs(c, t);
      const double expected = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
      EXPECT_EQ(fused_bt(r, c), expected);
    }
  }
}

TEST(MatrixTest, TransposeMatMulAddIntoMatchesSeparateAdd) {
  Rng rng(12);
  Matrix a = Matrix::Randn(9, 5, 1.0, &rng);
  Matrix dy = Matrix::Randn(9, 7, 1.0, &rng);
  Matrix grad = Matrix::Randn(5, 7, 1.0, &rng);
  Matrix expected = grad;
  expected.AddInPlace(a.TransposeMatMul(dy));
  a.TransposeMatMulAddInto(dy, &grad);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) EXPECT_EQ(grad(r, c), expected(r, c));
  }
}

TEST(MatrixTest, BlockedTransposeOddSizes) {
  // 33 × 17 straddles the 32-wide transpose tiles in both dimensions.
  Matrix m(33, 17);
  for (int r = 0; r < 33; ++r) {
    for (int c = 0; c < 17; ++c) m(r, c) = r * 100.0 + c;
  }
  Matrix t = m.Transpose();
  ASSERT_EQ(t.rows(), 17);
  ASSERT_EQ(t.cols(), 33);
  for (int r = 0; r < 33; ++r) {
    for (int c = 0; c < 17; ++c) EXPECT_EQ(t(c, r), m(r, c));
  }
}

TEST(MatrixTest, RowSpanViewsRowWithoutCopy) {
  Matrix m(3, 4);
  for (int c = 0; c < 4; ++c) m(1, c) = c + 0.5;
  RowSpan span = m.Row(1);
  ASSERT_EQ(span.size, 4);
  EXPECT_EQ(span.data, m.data() + 4);  // borrowed, not copied
  for (int c = 0; c < 4; ++c) EXPECT_EQ(span[c], m(1, c));
  EXPECT_EQ(std::vector<double>(span.begin(), span.end()),
            (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
}

TEST(InitTest, OrthogonalRowsAreOrthonormal) {
  Rng rng(2);
  Matrix m = OrthogonalInit(4, 8, 1.0, &rng);  // 4 rows, dim 8 → orthonormal
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      double dot = 0;
      for (int c = 0; c < 8; ++c) dot += m(i, c) * m(j, c);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(InitTest, OrthogonalGainScales) {
  Rng rng(3);
  Matrix m = OrthogonalInit(3, 6, 16.0, &rng);
  for (int i = 0; i < 3; ++i) {
    double norm = 0;
    for (int c = 0; c < 6; ++c) norm += m(i, c) * m(i, c);
    EXPECT_NEAR(std::sqrt(norm), 16.0, 1e-6);
  }
}

TEST(InitTest, OrthogonalTallMatrixColumnsOrthonormal) {
  Rng rng(4);
  Matrix m = OrthogonalInit(8, 3, 1.0, &rng);  // tall: columns orthonormal
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double dot = 0;
      for (int r = 0; r < 8; ++r) dot += m(r, i) * m(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(InitTest, XavierScaleReasonable) {
  Rng rng(5);
  Matrix m = XavierInit(64, 64, &rng);
  double sumsq = 0;
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) sumsq += m(r, c) * m(r, c);
  }
  double var = sumsq / (64.0 * 64.0);
  EXPECT_NEAR(var, 2.0 / 128.0, 0.005);
}

TEST(OptimizerTest, ClipGradNormCapsGlobalNorm) {
  Parameter p(Matrix(1, 2));
  p.grad(0, 0) = 3;
  p.grad(0, 1) = 4;  // norm 5
  ClipGradNorm({&p}, 1.0);
  EXPECT_NEAR(p.grad.Norm(), 1.0, 1e-12);
  // Below threshold: untouched.
  Parameter q(Matrix(1, 1));
  q.grad(0, 0) = 0.5;
  ClipGradNorm({&q}, 1.0);
  EXPECT_DOUBLE_EQ(q.grad(0, 0), 0.5);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize (x-3)^2 with gradient 2(x-3).
  Parameter p(Matrix(1, 1));
  p.value(0, 0) = -5.0;
  AdamOptimizer adam({&p}, 0.2);
  for (int i = 0; i < 400; ++i) {
    p.grad(0, 0) = 2.0 * (p.value(0, 0) - 3.0);
    adam.Step();
  }
  EXPECT_NEAR(p.value(0, 0), 3.0, 1e-2);
}

/// Test-local copy of the scalar Adam loop AdamOptimizer::Step ran before it
/// called simd::AdamStep, with the same SaveState layout.
class ParentLoopAdam {
 public:
  explicit ParentLoopAdam(const std::vector<size_t>& sizes) {
    for (size_t n : sizes) {
      m_.emplace_back(n, 0.0);
      v_.emplace_back(n, 0.0);
    }
  }

  void Step(const std::vector<Parameter*>& params) {
    ++t_;
    const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (size_t i = 0; i < params.size(); ++i) {
      Parameter* p = params[i];
      double* value = p->value.data();
      double* grad = p->grad.data();
      std::vector<double>& m = m_[i];
      std::vector<double>& v = v_[i];
      for (size_t j = 0; j < p->size(); ++j) {
        m[j] = beta1_ * m[j] + (1.0 - beta1_) * grad[j];
        v[j] = beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j];
        double mhat = m[j] / bias1;
        double vhat = v[j] / bias2;
        value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        grad[j] = 0.0;
      }
    }
  }

  void SaveState(common::BinaryWriter* writer) const {
    writer->WriteI64(t_);
    writer->WriteU32(static_cast<uint32_t>(m_.size()));
    for (size_t i = 0; i < m_.size(); ++i) {
      writer->WriteVecDouble(m_[i]);
      writer->WriteVecDouble(v_[i]);
    }
  }

 private:
  double lr_ = 1e-3, beta1_ = 0.9, beta2_ = 0.999, eps_ = 1e-8;
  int64_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

TEST(OptimizerTest, AdamStepMatchesParentLoop) {
  const std::vector<size_t> sizes = {1, 3, 5, 129};
  for (bool simd_on : {true, false}) {
    const bool was_enabled = simd::Enabled();
    simd::SetEnabled(simd_on);
    Rng rng(31);
    std::vector<Parameter> actual, expected;
    for (size_t n : sizes) {
      actual.emplace_back(Matrix::Randn(1, static_cast<int>(n), 1.0, &rng));
      expected.emplace_back(actual.back().value);
    }
    std::vector<Parameter*> actual_ptrs, expected_ptrs;
    for (size_t i = 0; i < sizes.size(); ++i) {
      actual_ptrs.push_back(&actual[i]);
      expected_ptrs.push_back(&expected[i]);
    }
    AdamOptimizer adam(actual_ptrs);
    ParentLoopAdam reference(sizes);
    for (int step = 0; step < 3; ++step) {
      for (size_t i = 0; i < sizes.size(); ++i) {
        for (size_t j = 0; j < sizes[i]; ++j) {
          // A few exact zeros and a subnormal among normal gradients.
          double g = rng.Normal(0.0, 1.0);
          if (j % 7 == 3) g = (step % 2 == 0) ? 0.0 : -0.0;
          if (j % 11 == 5) g = 3e-310;
          actual[i].grad.data()[j] = g;
          expected[i].grad.data()[j] = g;
        }
      }
      adam.Step();
      reference.Step(expected_ptrs);
      for (size_t i = 0; i < sizes.size(); ++i) {
        const size_t bytes = sizes[i] * sizeof(double);
        EXPECT_EQ(std::memcmp(actual[i].value.data(), expected[i].value.data(),
                              bytes),
                  0)
            << "value, size " << sizes[i] << " step " << step;
        EXPECT_EQ(std::memcmp(actual[i].grad.data(), expected[i].grad.data(),
                              bytes),
                  0)
            << "grad, size " << sizes[i] << " step " << step;
      }
      common::BinaryWriter actual_state, expected_state;
      adam.SaveState(&actual_state);
      reference.SaveState(&expected_state);
      ASSERT_EQ(actual_state.buffer().size(), expected_state.buffer().size());
      EXPECT_EQ(std::memcmp(actual_state.buffer().data(),
                            expected_state.buffer().data(),
                            actual_state.buffer().size()),
                0)
          << "SaveState bytes, step " << step << " simd " << simd_on;
    }
    simd::SetEnabled(was_enabled);
  }
}

}  // namespace
}  // namespace nn
}  // namespace fastft
