#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd_kernels.h"

namespace fastft {
namespace nn {
namespace {

// Tile edge of the blocked transpose (32x32 doubles = two 4 KiB pages of
// source + destination working set).
constexpr int kTransposeBlock = 32;

// Reshapes *out to (rows × cols), reusing its storage when the shape
// already matches. Contents are left unspecified — every kernel below
// overwrites (or explicitly accumulates into) the full output.
void Reshape(int rows, int cols, Matrix* out) {
  if (out->rows() != rows || out->cols() != cols) {
    *out = Matrix(rows, cols);
  }
}

}  // namespace

Matrix Matrix::Randn(int rows, int cols, double scale, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(0.0, scale);
  return m;
}

RowSpan Matrix::Row(int r) const {
  FASTFT_CHECK_GE(r, 0);
  FASTFT_CHECK_LT(r, rows_);
  return RowSpan{data() + static_cast<size_t>(r) * cols_, cols_};
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  // Tile so both the row-major reads and the column-major writes stay
  // within a cache-resident block instead of striding the full matrix.
  for (int r0 = 0; r0 < rows_; r0 += kTransposeBlock) {
    const int r1 = std::min(r0 + kTransposeBlock, rows_);
    for (int c0 = 0; c0 < cols_; c0 += kTransposeBlock) {
      const int c1 = std::min(c0 + kTransposeBlock, cols_);
      for (int r = r0; r < r1; ++r) {
        const double* src = data() + static_cast<size_t>(r) * cols_;
        for (int c = c0; c < c1; ++c) out(c, r) = src[c];
      }
    }
  }
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix* out) const {
  FASTFT_CHECK_EQ(cols_, other.rows_);
  FASTFT_CHECK(out != this && out != &other);
  const int m = rows_, kdim = cols_, n = other.cols_;
  Reshape(m, n, out);
  // Family-A kernel: each out(i, j) is one ascending-k chain. No zero
  // short-circuit: 0 · Inf and 0 · NaN must propagate NaN instead of
  // silently vanishing.
  simd::MatMul(data(), other.data(), out->data(), m, kdim, n);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(other, &out);
  return out;
}

void Matrix::TransposeMatMulInto(const Matrix& other, Matrix* out) const {
  FASTFT_CHECK_EQ(rows_, other.rows_);
  FASTFT_CHECK(out != this && out != &other);
  const int m = cols_, kdim = rows_, n = other.cols_;
  Reshape(m, n, out);
  simd::TransposeMatMul(data(), other.data(), out->data(), m, kdim, n,
                        /*accumulate=*/false);
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  Matrix out;
  TransposeMatMulInto(other, &out);
  return out;
}

void Matrix::TransposeMatMulAddInto(const Matrix& other, Matrix* out) const {
  FASTFT_CHECK_EQ(rows_, other.rows_);
  FASTFT_CHECK(out != this && out != &other);
  const int m = cols_, kdim = rows_, n = other.cols_;
  FASTFT_CHECK_EQ(out->rows(), m);
  FASTFT_CHECK_EQ(out->cols(), n);
  // Each element's chain completes in a register before the single += into
  // *out — the same float order as materializing the product and calling
  // AddInPlace, without the temporary.
  simd::TransposeMatMul(data(), other.data(), out->data(), m, kdim, n,
                        /*accumulate=*/true);
}

void Matrix::MatMulTransposeInto(const Matrix& other, Matrix* out) const {
  FASTFT_CHECK_EQ(cols_, other.cols_);
  FASTFT_CHECK(out != this && out != &other);
  const int m = rows_, kdim = cols_, n = other.rows_;
  Reshape(m, n, out);
  // Row-times-row dot products: both operands stream contiguously. This is
  // the one product kernel on the family-B (lane-split) reduction order —
  // out(i, j) is a lane-split sum, not one ascending-k chain — so it is NOT
  // bitwise equal to MatMul(other.Transpose()); it is bitwise equal to
  // itself across scalar/AVX2/NEON and thread counts, which is the contract.
  simd::MatMulTranspose(data(), other.data(), out->data(), m, kdim, n);
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  Matrix out;
  MatMulTransposeInto(other, &out);
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  FASTFT_CHECK_EQ(rows_, other.rows_);
  FASTFT_CHECK_EQ(cols_, other.cols_);
  simd::Add(other.data(), data(), static_cast<int>(data_.size()));
}

void Matrix::ScaleInPlace(double factor) {
  for (double& v : data_) v *= factor;
}

double Matrix::Norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace nn
}  // namespace fastft
