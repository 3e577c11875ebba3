// NEON (aarch64) backend. float64x2_t holds 2 doubles, so every family-B
// reduction uses TWO registers per kLanes (= 4) logical group — lanes {0,1}
// in one, {2,3} in the other — keeping the lane assignment and the ascending
// combine order identical to the scalar spec and the AVX2 backend.
//
// vmulq_f64 + vaddq_f64 only: FMLA (vfmaq_f64) fuses the rounding step and
// would drift from the scalar reference built with -ffp-contract=off.

#include "common/simd_kernels.h"

#if defined(FASTFT_SIMD_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace fastft {
namespace simd {
namespace {

void MatMulNeon(const double* a, const double* b, double* out, int m,
                int kdim, int n) {
  const int n4 = n & ~3;
  for (int j0 = 0; j0 < n4; j0 += 4) {
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      for (int k = 0; k < kdim; ++k) {
        const float64x2_t av = vdupq_n_f64(arow[k]);
        const double* brow = b + static_cast<size_t>(k) * n + j0;
        acc0 = vaddq_f64(acc0, vmulq_f64(av, vld1q_f64(brow)));
        acc1 = vaddq_f64(acc1, vmulq_f64(av, vld1q_f64(brow + 2)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      vst1q_f64(orow, acc0);
      vst1q_f64(orow + 2, acc1);
    }
  }
  if (n4 < n) {
    const int jw = n - n4;  // 1..3 trailing columns
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      double acc[3] = {0.0, 0.0, 0.0};
      for (int k = 0; k < kdim; ++k) {
        const double av = arow[k];
        const double* brow = b + static_cast<size_t>(k) * n + n4;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + n4;
      for (int j = 0; j < jw; ++j) orow[j] = acc[j];
    }
  }
}

void TransposeMatMulNeon(const double* a, const double* b, double* out, int m,
                         int kdim, int n, bool accumulate) {
  const int n4 = n & ~3;
  for (int j0 = 0; j0 < n4; j0 += 4) {
    for (int i = 0; i < m; ++i) {
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      for (int t = 0; t < kdim; ++t) {
        const float64x2_t av = vdupq_n_f64(a[static_cast<size_t>(t) * m + i]);
        const double* brow = b + static_cast<size_t>(t) * n + j0;
        acc0 = vaddq_f64(acc0, vmulq_f64(av, vld1q_f64(brow)));
        acc1 = vaddq_f64(acc1, vmulq_f64(av, vld1q_f64(brow + 2)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      if (accumulate) {
        acc0 = vaddq_f64(vld1q_f64(orow), acc0);
        acc1 = vaddq_f64(vld1q_f64(orow + 2), acc1);
      }
      vst1q_f64(orow, acc0);
      vst1q_f64(orow + 2, acc1);
    }
  }
  if (n4 < n) {
    const int jw = n - n4;
    for (int i = 0; i < m; ++i) {
      double acc[3] = {0.0, 0.0, 0.0};
      for (int t = 0; t < kdim; ++t) {
        const double av = a[static_cast<size_t>(t) * m + i];
        const double* brow = b + static_cast<size_t>(t) * n + n4;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + n4;
      if (accumulate) {
        for (int j = 0; j < jw; ++j) orow[j] += acc[j];
      } else {
        for (int j = 0; j < jw; ++j) orow[j] = acc[j];
      }
    }
  }
}

void AxpyNeon(double a, const double* x, double* y, int n) {
  const float64x2_t av = vdupq_n_f64(a);
  const int n2 = n & ~1;
  for (int i = 0; i < n2; i += 2) {
    const float64x2_t prod = vmulq_f64(av, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), prod));
  }
  if (n2 < n) y[n2] += a * x[n2];
}

void AddNeon(const double* x, double* y, int n) {
  const int n2 = n & ~1;
  for (int i = 0; i < n2; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  if (n2 < n) y[n2] += x[n2];
}

void SubNeon(const double* a, const double* b, double* out, int n) {
  const int n2 = n & ~1;
  for (int i = 0; i < n2; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  if (n2 < n) out[n2] = a[n2] - b[n2];
}

/// Ascending lane-order combine of the {lo = lanes 0,1; hi = lanes 2,3}
/// register pair plus the scalar tail (same index % 4 assignment as the
/// scalar spec).
inline double CombineLanes(float64x2_t lo, float64x2_t hi, const double* a,
                           const double* b, int n4, int n) {
  double lanes[kLanes];
  vst1q_f64(lanes, lo);
  vst1q_f64(lanes + 2, hi);
  for (int k = n4; k < n; ++k) lanes[k - n4] += a[k] * b[k];
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

double DotNeon(const double* a, const double* b, int n) {
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    lo = vaddq_f64(lo, vmulq_f64(vld1q_f64(a + k), vld1q_f64(b + k)));
    hi = vaddq_f64(hi, vmulq_f64(vld1q_f64(a + k + 2), vld1q_f64(b + k + 2)));
  }
  return CombineLanes(lo, hi, a, b, n4, n);
}

void SumAndSumSqNeon(const double* v, int n, double* sum, double* sumsq) {
  float64x2_t slo = vdupq_n_f64(0.0);
  float64x2_t shi = vdupq_n_f64(0.0);
  float64x2_t qlo = vdupq_n_f64(0.0);
  float64x2_t qhi = vdupq_n_f64(0.0);
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    const float64x2_t x0 = vld1q_f64(v + k);
    const float64x2_t x1 = vld1q_f64(v + k + 2);
    slo = vaddq_f64(slo, x0);
    shi = vaddq_f64(shi, x1);
    qlo = vaddq_f64(qlo, vmulq_f64(x0, x0));
    qhi = vaddq_f64(qhi, vmulq_f64(x1, x1));
  }
  double sl[kLanes];
  double ql[kLanes];
  vst1q_f64(sl, slo);
  vst1q_f64(sl + 2, shi);
  vst1q_f64(ql, qlo);
  vst1q_f64(ql + 2, qhi);
  for (int k = n4; k < n; ++k) {
    const double x = v[k];
    sl[k - n4] += x;
    ql[k - n4] += x * x;
  }
  *sum = ((sl[0] + sl[1]) + sl[2]) + sl[3];
  *sumsq = ((ql[0] + ql[1]) + ql[2]) + ql[3];
}

void MatVecNeon(const double* w, const double* bias, const double* z,
                double* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const double d = DotNeon(w + static_cast<size_t>(r) * cols, z, cols);
    out[r] = (bias != nullptr ? bias[r] : 0.0) + d;
  }
}

void MatMulTransposeNeon(const double* a, const double* b, double* out, int m,
                         int kdim, int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * kdim;
    double* orow = out + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] = DotNeon(arow, b + static_cast<size_t>(j) * kdim, kdim);
    }
  }
}

// AdamStep has no NEON version yet; the scalar reference is exact.
constexpr KernelTable kNeonTable = {
    MatMulNeon,      TransposeMatMulNeon, AxpyNeon,
    AddNeon,         SubNeon,             AdamStepScalar,
    SumAndSumSqNeon, MatVecNeon,          MatMulTransposeNeon,
    "neon",
};

}  // namespace

const KernelTable* NeonKernels() { return &kNeonTable; }

}  // namespace simd
}  // namespace fastft

#endif  // FASTFT_SIMD_NEON && __aarch64__
