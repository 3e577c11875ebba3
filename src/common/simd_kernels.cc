// Scalar reference kernels + backend dispatch.
//
// The scalar implementations below ARE the contract: a vector backend is
// correct exactly when it reproduces these bit for bit (see the summation-
// order families in simd_kernels.h). The family-A kernels keep the same
// column-blocked structure as the pre-SIMD Matrix kernels — blocking only
// changes which elements are in flight together, never a per-element chain —
// so the scalar fallback loses nothing against the old code.

#include "common/simd_kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>

namespace fastft {
namespace simd {
namespace {

// Column-block width of the family-A kernels: small enough that the
// accumulators live in registers, wide enough to stream full cache lines.
constexpr int kColBlock = 8;

void MatMulScalar(const double* a, const double* b, double* out, int m,
                  int kdim, int n) {
  for (int j0 = 0; j0 < n; j0 += kColBlock) {
    const int jw = n - j0 < kColBlock ? n - j0 : kColBlock;
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      double acc[kColBlock] = {0.0};
      for (int k = 0; k < kdim; ++k) {
        const double av = arow[k];
        const double* brow = b + static_cast<size_t>(k) * n + j0;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      for (int j = 0; j < jw; ++j) orow[j] = acc[j];
    }
  }
}

void TransposeMatMulScalar(const double* a, const double* b, double* out,
                           int m, int kdim, int n, bool accumulate) {
  for (int j0 = 0; j0 < n; j0 += kColBlock) {
    const int jw = n - j0 < kColBlock ? n - j0 : kColBlock;
    for (int i = 0; i < m; ++i) {
      double acc[kColBlock] = {0.0};
      for (int t = 0; t < kdim; ++t) {
        const double av = a[static_cast<size_t>(t) * m + i];
        const double* brow = b + static_cast<size_t>(t) * n + j0;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      if (accumulate) {
        for (int j = 0; j < jw; ++j) orow[j] += acc[j];
      } else {
        for (int j = 0; j < jw; ++j) orow[j] = acc[j];
      }
    }
  }
}

void AxpyScalar(double a, const double* x, double* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

void AddScalar(const double* x, double* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += x[i];
}

void SubScalar(const double* a, const double* b, double* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

}  // namespace

void AdamStepScalar(const AdamCoeffs& c, double* value, double* grad,
                    double* m, double* v, int n) {
  for (int i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * grad[i];
    v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * grad[i] * grad[i];
    const double mhat = m[i] / c.bias1;
    const double vhat = v[i] / c.bias2;
    value[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
    grad[i] = 0.0;
  }
}

namespace {

double DotScalar(const double* a, const double* b, int n) {
  double lanes[kLanes] = {0.0};
  const int n4 = n & ~(kLanes - 1);
  for (int k = 0; k < n4; k += kLanes) {
    lanes[0] += a[k] * b[k];
    lanes[1] += a[k + 1] * b[k + 1];
    lanes[2] += a[k + 2] * b[k + 2];
    lanes[3] += a[k + 3] * b[k + 3];
  }
  for (int k = n4; k < n; ++k) lanes[k - n4] += a[k] * b[k];
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

void SumAndSumSqScalar(const double* v, int n, double* sum, double* sumsq) {
  double s[kLanes] = {0.0};
  double q[kLanes] = {0.0};
  const int n4 = n & ~(kLanes - 1);
  for (int k = 0; k < n4; k += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      const double x = v[k + l];
      s[l] += x;
      q[l] += x * x;
    }
  }
  for (int k = n4; k < n; ++k) {
    const double x = v[k];
    s[k - n4] += x;
    q[k - n4] += x * x;
  }
  *sum = ((s[0] + s[1]) + s[2]) + s[3];
  *sumsq = ((q[0] + q[1]) + q[2]) + q[3];
}

void MatVecScalar(const double* w, const double* bias, const double* z,
                  double* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const double d = DotScalar(w + static_cast<size_t>(r) * cols, z, cols);
    out[r] = (bias != nullptr ? bias[r] : 0.0) + d;
  }
}

void MatMulTransposeScalar(const double* a, const double* b, double* out,
                           int m, int kdim, int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * kdim;
    double* orow = out + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] = DotScalar(arow, b + static_cast<size_t>(j) * kdim, kdim);
    }
  }
}

constexpr KernelTable kScalarTable = {
    MatMulScalar,      TransposeMatMulScalar, AxpyScalar,
    AddScalar,         SubScalar,             AdamStepScalar,
    SumAndSumSqScalar, MatVecScalar,          MatMulTransposeScalar,
    "scalar",
};

std::atomic<bool> g_enabled{true};

}  // namespace

#if defined(FASTFT_SIMD_AVX2)
const KernelTable* Avx2Kernels();
#endif
#if defined(FASTFT_SIMD_NEON)
const KernelTable* NeonKernels();
#endif

namespace {

/// The vector table compiled into this binary, or null. Detection runs once:
/// a backend must be compiled in (FASTFT_SIMD=ON), supported by this CPU,
/// and not vetoed by FASTFT_SIMD=0/off in the environment.
const KernelTable* VectorTable() {
  static const KernelTable* table = []() -> const KernelTable* {
    const char* env = std::getenv("FASTFT_SIMD");
    if (env != nullptr) {
      const std::string value(env);
      if (value == "0" || value == "off" || value == "OFF") return nullptr;
    }
#if defined(FASTFT_SIMD_AVX2)
    if (__builtin_cpu_supports("avx2")) return Avx2Kernels();
#endif
#if defined(FASTFT_SIMD_NEON)
    return NeonKernels();
#endif
    return nullptr;
  }();
  return table;
}

const KernelTable& Active() {
  const KernelTable* vec = VectorTable();
  if (vec != nullptr && g_enabled.load(std::memory_order_relaxed)) {
    return *vec;
  }
  return kScalarTable;
}

}  // namespace

const char* ActiveBackend() { return Active().name; }

bool VectorBackendAvailable() { return VectorTable() != nullptr; }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void MatMul(const double* a, const double* b, double* out, int m, int kdim,
            int n) {
  Active().matmul(a, b, out, m, kdim, n);
}

void TransposeMatMul(const double* a, const double* b, double* out, int m,
                     int kdim, int n, bool accumulate) {
  Active().transpose_matmul(a, b, out, m, kdim, n, accumulate);
}

void Axpy(double a, const double* x, double* y, int n) {
  Active().axpy(a, x, y, n);
}

void Add(const double* x, double* y, int n) { Active().add(x, y, n); }

void Sub(const double* a, const double* b, double* out, int n) {
  Active().sub(a, b, out, n);
}

void AdamStep(const AdamCoeffs& c, double* value, double* grad, double* m,
              double* v, int n) {
  Active().adam_step(c, value, grad, m, v, n);
}

void SumAndSumSq(const double* v, int n, double* sum, double* sumsq) {
  Active().sum_and_sumsq(v, n, sum, sumsq);
}

void MatVec(const double* w, const double* bias, const double* z, double* out,
            int rows, int cols) {
  Active().matvec(w, bias, z, out, rows, cols);
}

void MatMulTranspose(const double* a, const double* b, double* out, int m,
                     int kdim, int n) {
  Active().matmul_transpose(a, b, out, m, kdim, n);
}

}  // namespace simd
}  // namespace fastft
