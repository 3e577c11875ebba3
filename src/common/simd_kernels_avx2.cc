// AVX2 backend. Compiled with -mavx2 (and only this translation unit is),
// selected at runtime when __builtin_cpu_supports("avx2").
//
// Bit-identity with the scalar reference (simd_kernels.cc) is the whole
// game, and three rules keep it:
//
//   * no fused multiply-add — _mm256_mul_pd + _mm256_add_pd round twice,
//     exactly like the scalar `acc += a * b` under -ffp-contract=off; the
//     FMA intrinsics would round once and drift;
//   * _mm256_div_pd and _mm256_sqrt_pd are correctly rounded, like the
//     scalar `/` and std::sqrt, and no reciprocal stands in for a division;
//   * family-B reductions keep kLanes (= 4) logical lanes = one __m256d,
//     tails are applied to the extracted lanes with the same index % 4
//     assignment as the scalar spec, and lanes combine in ascending order.

#include "common/simd_kernels.h"

#if defined(FASTFT_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace fastft {
namespace simd {
namespace {

void MatMulAvx2(const double* a, const double* b, double* out, int m,
                int kdim, int n) {
  const int n8 = n & ~7;
  for (int j0 = 0; j0 < n8; j0 += 8) {
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (int k = 0; k < kdim; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        const double* brow = b + static_cast<size_t>(k) * n + j0;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      _mm256_storeu_pd(orow, acc0);
      _mm256_storeu_pd(orow + 4, acc1);
    }
  }
  int j0 = n8;
  if (n - j0 >= 4) {
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kdim; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     av, _mm256_loadu_pd(b + static_cast<size_t>(k) * n + j0)));
      }
      _mm256_storeu_pd(out + static_cast<size_t>(i) * n + j0, acc);
    }
    j0 += 4;
  }
  if (j0 < n) {
    const int jw = n - j0;  // 1..3 trailing columns
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      double acc[3] = {0.0, 0.0, 0.0};
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

/// One (R rows × 4V columns) block of out = aᵀ·b starting at (i, j0): R·V
/// independent accumulators, so the t loop is bound by throughput, not by
/// the add latency of a single chain. Each element is still the ascending-t
/// chain of the scalar reference.
template <int R, int V>
inline void TransposeMatMulBlock(const double* a, const double* b, double* out,
                                 int m, int kdim, int n, int i, int j0,
                                 bool accumulate) {
  __m256d acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (int t = 0; t < kdim; ++t) {
    const double* arow = a + static_cast<size_t>(t) * m + i;
    const double* brow = b + static_cast<size_t>(t) * n + j0;
    __m256d bv[V];
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_pd(brow + 4 * v);
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_set1_pd(arow[r]);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    double* orow = out + static_cast<size_t>(i + r) * n + j0;
    for (int v = 0; v < V; ++v) {
      __m256d res = acc[r][v];
      if (accumulate) res = _mm256_add_pd(_mm256_loadu_pd(orow + 4 * v), res);
      _mm256_storeu_pd(orow + 4 * v, res);
    }
  }
}

/// Every row of the column panel [j0, j0 + 4V), two rows per block.
template <int V>
inline void TransposeMatMulPanel(const double* a, const double* b, double* out,
                                 int m, int kdim, int n, int j0,
                                 bool accumulate) {
  int i = 0;
  for (; i + 2 <= m; i += 2) {
    TransposeMatMulBlock<2, V>(a, b, out, m, kdim, n, i, j0, accumulate);
  }
  if (i < m) {
    TransposeMatMulBlock<1, V>(a, b, out, m, kdim, n, i, j0, accumulate);
  }
}

void TransposeMatMulAvx2(const double* a, const double* b, double* out, int m,
                         int kdim, int n, bool accumulate) {
  int j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    TransposeMatMulPanel<4>(a, b, out, m, kdim, n, j0, accumulate);
  }
  if (n - j0 >= 8) {
    TransposeMatMulPanel<2>(a, b, out, m, kdim, n, j0, accumulate);
    j0 += 8;
  }
  if (n - j0 >= 4) {
    TransposeMatMulPanel<1>(a, b, out, m, kdim, n, j0, accumulate);
    j0 += 4;
  }
  if (j0 < n) {
    const int jw = n - j0;  // 1..3 trailing columns
    for (int i = 0; i < m; ++i) {
      double acc[3] = {0.0, 0.0, 0.0};
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

void AxpyAvx2(double a, const double* x, double* y, int n) {
  const __m256d av = _mm256_set1_pd(a);
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (int i = n4; i < n; ++i) y[i] += a * x[i];
}

void AddAvx2(const double* x, double* y, int n) {
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (int i = n4; i < n; ++i) y[i] += x[i];
}

void SubAvx2(const double* a, const double* b, double* out, int n) {
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int i = n4; i < n; ++i) out[i] = a[i] - b[i];
}

void AdamStepAvx2(const AdamCoeffs& c, double* value, double* grad, double* m,
                  double* v, int n) {
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d bias1 = _mm256_set1_pd(c.bias1);
  const __m256d bias2 = _mm256_set1_pd(c.bias2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(one_minus_beta1, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bias1);
    const __m256d vhat = _mm256_div_pd(vi, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(value + i,
                     _mm256_sub_pd(_mm256_loadu_pd(value + i), step));
    _mm256_storeu_pd(grad + i, _mm256_setzero_pd());
  }
  AdamStepScalar(c, value + n4, grad + n4, m + n4, v + n4, n - n4);
}

/// Ascending lane-order combine of one __m256d accumulator plus the scalar
/// tail, matching the scalar spec's `lanes[k % 4]` assignment.
inline double CombineLanes(__m256d acc, const double* a, const double* b,
                           int n4, int n) {
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, acc);
  for (int k = n4; k < n; ++k) lanes[k - n4] += a[k] * b[k];
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

double DotAvx2(const double* a, const double* b, int n) {
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  return CombineLanes(acc, a, b, n4, n);
}

void SumAndSumSqAvx2(const double* v, int n, double* sum, double* sumsq) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    s = _mm256_add_pd(s, x);
    q = _mm256_add_pd(q, _mm256_mul_pd(x, x));
  }
  alignas(32) double sl[kLanes];
  alignas(32) double ql[kLanes];
  _mm256_store_pd(sl, s);
  _mm256_store_pd(ql, q);
  for (int k = n4; k < n; ++k) {
    const double x = v[k];
    sl[k - n4] += x;
    ql[k - n4] += x * x;
  }
  *sum = ((sl[0] + sl[1]) + sl[2]) + sl[3];
  *sumsq = ((ql[0] + ql[1]) + ql[2]) + ql[3];
}

void MatVecAvx2(const double* w, const double* bias, const double* z,
                double* out, int rows, int cols) {
  const int c4 = cols & ~3;
  int r = 0;
  // Four rows at a time: four independent accumulators hide the add
  // latency and the z chunk is loaded once per group.
  for (; r + 4 <= rows; r += 4) {
    const double* w0 = w + static_cast<size_t>(r) * cols;
    const double* w1 = w0 + cols;
    const double* w2 = w1 + cols;
    const double* w3 = w2 + cols;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (int c = 0; c < c4; c += 4) {
      const __m256d zv = _mm256_loadu_pd(z + c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(w0 + c), zv));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(w1 + c), zv));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(w2 + c), zv));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(w3 + c), zv));
    }
    const double d0 = CombineLanes(a0, w0, z, c4, cols);
    const double d1 = CombineLanes(a1, w1, z, c4, cols);
    const double d2 = CombineLanes(a2, w2, z, c4, cols);
    const double d3 = CombineLanes(a3, w3, z, c4, cols);
    if (bias != nullptr) {
      out[r] = bias[r] + d0;
      out[r + 1] = bias[r + 1] + d1;
      out[r + 2] = bias[r + 2] + d2;
      out[r + 3] = bias[r + 3] + d3;
    } else {
      out[r] = d0;
      out[r + 1] = d1;
      out[r + 2] = d2;
      out[r + 3] = d3;
    }
  }
  for (; r < rows; ++r) {
    const double d = DotAvx2(w + static_cast<size_t>(r) * cols, z, cols);
    out[r] = (bias != nullptr ? bias[r] : 0.0) + d;
  }
}

void MatMulTransposeAvx2(const double* a, const double* b, double* out, int m,
                         int kdim, int n) {
  const int k4 = kdim & ~3;
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * kdim;
    double* orow = out + static_cast<size_t>(i) * n;
    int j = 0;
    // Four b-rows at a time, sharing the arow loads.
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + static_cast<size_t>(j) * kdim;
      const double* b1 = b0 + kdim;
      const double* b2 = b1 + kdim;
      const double* b3 = b2 + kdim;
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      __m256d a2 = _mm256_setzero_pd();
      __m256d a3 = _mm256_setzero_pd();
      for (int k = 0; k < k4; k += 4) {
        const __m256d av = _mm256_loadu_pd(arow + k);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(av, _mm256_loadu_pd(b0 + k)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(av, _mm256_loadu_pd(b1 + k)));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(av, _mm256_loadu_pd(b2 + k)));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(av, _mm256_loadu_pd(b3 + k)));
      }
      orow[j] = CombineLanes(a0, arow, b0, k4, kdim);
      orow[j + 1] = CombineLanes(a1, arow, b1, k4, kdim);
      orow[j + 2] = CombineLanes(a2, arow, b2, k4, kdim);
      orow[j + 3] = CombineLanes(a3, arow, b3, k4, kdim);
    }
    for (; j < n; ++j) {
      orow[j] = DotAvx2(arow, b + static_cast<size_t>(j) * kdim, kdim);
    }
  }
}

constexpr KernelTable kAvx2Table = {
    MatMulAvx2,      TransposeMatMulAvx2, AxpyAvx2,
    AddAvx2,         SubAvx2,             AdamStepAvx2,
    SumAndSumSqAvx2, MatVecAvx2,          MatMulTransposeAvx2,
    "avx2",
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace simd
}  // namespace fastft

#endif  // FASTFT_SIMD_AVX2 && __AVX2__
