// Dense row-major matrix of doubles — the tensor type of the nn library.
//
// Sized for the paper's tiny sequence models (embedding dim 32, hidden 32):
// cache-blocked hand loops beat the complexity of a BLAS dependency here.
//
// Bit-identity contract: the product kernels dispatch to the SIMD layer
// (common/simd_kernels.h), whose scalar and vector backends are bit-identical
// by construction. MatMul / TransposeMatMul(Add) accumulate each output
// element as one chain of additions in ascending inner (k) index, exactly
// the order of the textbook triple loop. MatMulTranspose is a family-B
// lane-split reduction (kLanes fixed logical lanes, ascending lane-order
// combine) — deterministic across backends and thread counts, but NOT
// bitwise equal to MatMul(other.Transpose()). Either way, results never
// depend on FASTFT_SIMD — the property the estimation path's exact-`==`
// determinism tests rely on.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fastft {
class Rng;

namespace nn {

/// Borrowed view of one matrix row (pointer + length). Valid only while the
/// owning matrix is alive and unmodified; cheap to copy, never owns memory.
struct RowSpan {
  const double* data = nullptr;
  int size = 0;

  double operator[](int i) const { return data[i]; }
  const double* begin() const { return data; }
  const double* end() const { return data + size; }
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols,
                                        fill) {}

  /// Gaussian-initialized matrix with std `scale`.
  static Matrix Randn(int rows, int cols, double scale, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool Empty() const { return data_.empty(); }

  double& operator()(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Row `r` as a borrowed view.
  RowSpan Row(int r) const;

  void Fill(double value);
  /// Cache-blocked out-of-place transpose.
  Matrix Transpose() const;

  /// this * other.
  Matrix MatMul(const Matrix& other) const;
  /// this * other written into *out (resized as needed; no temporary).
  /// *out must not alias either operand.
  void MatMulInto(const Matrix& other, Matrix* out) const;

  /// thisᵀ * other without forming the transpose:
  /// out(i, j) = Σ_t this(t, i) · other(t, j), t ascending.
  Matrix TransposeMatMul(const Matrix& other) const;
  void TransposeMatMulInto(const Matrix& other, Matrix* out) const;
  /// Gradient-fusion variant: accumulates the fully-summed product into
  /// *out (each element's chain is completed before the single += — the
  /// same float order as TransposeMatMulInto followed by AddInPlace).
  void TransposeMatMulAddInto(const Matrix& other, Matrix* out) const;

  /// this * otherᵀ without forming the transpose:
  /// out(i, j) = Σ_k this(i, k) · other(j, k) as a lane-split reduction
  /// (simd::MatMulTranspose) — deterministic, but a different float order
  /// than MatMul.
  Matrix MatMulTranspose(const Matrix& other) const;
  void MatMulTransposeInto(const Matrix& other, Matrix* out) const;

  void AddInPlace(const Matrix& other);
  void ScaleInPlace(double factor);

  /// Frobenius norm of the matrix.
  double Norm() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Trainable tensor: value plus accumulated gradient of identical shape.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v = Matrix())
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
  size_t size() const { return value.size(); }
};

}  // namespace nn
}  // namespace fastft

