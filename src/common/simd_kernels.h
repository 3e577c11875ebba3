// Vectorized dense kernels under the deterministic contract.
//
// This is the one blessed home for SIMD intrinsics in the tree (enforced by
// the raw-intrinsics analyzer rule): every caller goes through the dispatching
// entry points below, which route to an AVX2 or NEON implementation when one
// was compiled in (FASTFT_SIMD=ON) and the host supports it, and to the
// scalar reference otherwise. The scalar and vector implementations of each
// kernel are bit-identical by construction, so flipping SIMD on or off (at
// build time, via the FASTFT_SIMD environment variable, or with SetEnabled)
// never changes a single output byte. Two summation-order families make that
// possible:
//
//   A. Element-parallel kernels (MatMul, TransposeMatMul, Axpy, Add, Sub,
//      AdamStep): vector lanes hold *different output elements*; each
//      element is still one chain of additions in ascending inner index (or,
//      for AdamStep, one fixed sequence of correctly rounded operations),
//      exactly the textbook loop. Lane width and register blocking only
//      change which elements are in flight together, so these are bitwise
//      equal to the naive scalar kernel on any ISA.
//
//   B. Lane-split reductions (SumAndSumSq, MatVec, MatMulTranspose):
//      a single sum is accumulated in kLanes (= 4) fixed *logical* lanes —
//      element i goes to lane i % kLanes, the tail keeps that assignment —
//      and the lanes are combined in ascending order at the end:
//      ((l0 + l1) + l2) + l3. The lane count is a constant of the contract,
//      not the ISA width, so scalar, AVX2 (4 doubles), and NEON (2 doubles,
//      two registers per logical group) all produce identical bits.
//
// Fused multiply-add is never used (vfmadd / FMLA round once, mul+add
// rounds twice), and the library builds with -ffp-contract=off so compilers
// cannot contract the scalar reference either.
//
// NaN/Inf semantics: no kernel short-circuits zero operands, so 0 · Inf and
// 0 · NaN propagate NaN instead of silently vanishing (the Matrix contract).

#pragma once

#include <cstddef>

namespace fastft {
namespace simd {

/// Logical accumulation lanes of every family-B reduction. Fixed by the
/// determinism contract; independent of the ISA vector width.
inline constexpr int kLanes = 4;

/// Name of the backend the dispatcher would use right now:
/// "avx2", "neon", or "scalar".
const char* ActiveBackend();

/// True when a vector backend was compiled in (FASTFT_SIMD=ON) and the host
/// CPU supports it; independent of the runtime toggle.
bool VectorBackendAvailable();

/// Runtime toggle for tests and benches: when false every entry point runs
/// the scalar reference. Results are bit-identical either way. Not
/// synchronized with in-flight kernel calls — flip it only between runs.
void SetEnabled(bool enabled);
bool Enabled();

// --- Family A: element-parallel kernels (per-element ascending-k chains) ---

/// out = a · b with a (m × kdim), b (kdim × n), all row-major.
/// out must not alias a or b. Each out(i, j) is one ascending-k chain.
void MatMul(const double* a, const double* b, double* out, int m, int kdim,
            int n);

/// out(i, j) = Σ_t a(t, i) · b(t, j), t ascending — aᵀ·b without forming the
/// transpose; a is (kdim × m), b is (kdim × n). When `accumulate` is true
/// each fully-summed element is added into out with a single += (the
/// gradient-fusion order), otherwise it overwrites.
void TransposeMatMul(const double* a, const double* b, double* out, int m,
                     int kdim, int n, bool accumulate);

/// y[i] += a · x[i].
void Axpy(double a, const double* x, double* y, int n);

/// y[i] += x[i].
void Add(const double* x, double* y, int n);

/// out[i] = a[i] - b[i].
void Sub(const double* a, const double* b, double* out, int n);

/// Hyper-parameters of one Adam update; bias1 = 1 − β1^t, bias2 = 1 − β2^t.
struct AdamCoeffs {
  double lr, beta1, beta2, eps, bias1, bias2;
};

/// One Adam update of n parameters, then grad[i] = 0:
///   m = β1·m + (1−β1)·g;  v = β2·v + ((1−β2)·g)·g;
///   value −= (lr · (m / bias1)) / (sqrt(v / bias2) + eps).
/// Divisions and the square root are correctly rounded on every backend and
/// no reciprocal or FMA is formed, so each element's bits match the scalar
/// loop.
void AdamStep(const AdamCoeffs& c, double* value, double* grad, double* m,
              double* v, int n);

/// The scalar reference of AdamStep, for a backend table without a vector
/// version of it.
void AdamStepScalar(const AdamCoeffs& c, double* value, double* grad,
                    double* m, double* v, int n);

// --- Family B: lane-split reductions (kLanes logical lanes, ascending
// lane-order combine) -------------------------------------------------------

/// Lane-split Σ v[i] and Σ v[i]², one pass.
void SumAndSumSq(const double* v, int n, double* sum, double* sumsq);

/// out[r] = bias[r] + Σ_k w(r, k) · z[k] (lane-split) for r in [0, rows); w
/// is (rows × cols) row-major, bias may be null (treated as 0).
void MatVec(const double* w, const double* bias, const double* z, double* out,
            int rows, int cols);

/// out(i, j) = Σ_k a(i, k) · b(j, k) (lane-split) — a·bᵀ without forming the
/// transpose; a is (m × kdim), b is (n × kdim). out must not alias a or b.
void MatMulTranspose(const double* a, const double* b, double* out, int m,
                     int kdim, int n);

/// The dispatch table: one function pointer per kernel. Backends fill a
/// table; the entry points above call through the active one.
struct KernelTable {
  void (*matmul)(const double*, const double*, double*, int, int, int);
  void (*transpose_matmul)(const double*, const double*, double*, int, int,
                           int, bool);
  void (*axpy)(double, const double*, double*, int);
  void (*add)(const double*, double*, int);
  void (*sub)(const double*, const double*, double*, int);
  void (*adam_step)(const AdamCoeffs&, double*, double*, double*, double*,
                    int);
  void (*sum_and_sumsq)(const double*, int, double*, double*);
  void (*matvec)(const double*, const double*, const double*, double*, int,
                 int);
  void (*matmul_transpose)(const double*, const double*, double*, int, int,
                           int);
  const char* name;
};

}  // namespace simd
}  // namespace fastft
