// The SIMD layer's one promise: flipping the vector backend on or off never
// changes a single output byte. Every test here compares the active backend
// against the scalar reference with exact `==` on shapes that exercise the
// remainder lanes (n % 4 and n % 8 != 0), plus the NaN/Inf propagation and
// lane-order contracts documented in common/simd_kernels.h — and one
// end-to-end engine run whose report must be byte-identical across
// {scalar, vector} × {1 thread, 4 threads}.

#include "common/simd_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/run_report.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

/// Restores the runtime SIMD toggle no matter how the test exits.
class SimdToggleGuard {
 public:
  SimdToggleGuard() : was_enabled_(simd::Enabled()) {}
  ~SimdToggleGuard() { simd::SetEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

std::vector<double> RandomVec(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Normal(0.0, 1.0);
  return v;
}

// Shapes chosen to hit every tail path: below one vector width, exact
// multiples of 4 and 8, 1-3 trailing lanes on both block sizes, and the
// register blocks of TransposeMatMul (row pairs plus an odd last row, 16-,
// 8- and 4-column panels) at the LSTM's dz (1 x 128 x 64) and dW
// (128 x len x 64) shapes.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},     {2, 3, 5},     {3, 4, 8},
                         {4, 7, 9},     {5, 8, 12},    {6, 13, 15},
                         {13, 37, 21},  {8, 32, 30},   {1, 128, 64},
                         {128, 53, 64}, {128, 130, 64}, {2, 5, 16},
                         {3, 4, 17},    {5, 9, 33}};

TEST(SimdKernelsTest, BackendTogglesBetweenVectorAndScalar) {
  SimdToggleGuard guard;
  simd::SetEnabled(false);
  EXPECT_STREQ(simd::ActiveBackend(), "scalar");
  simd::SetEnabled(true);
  if (simd::VectorBackendAvailable()) {
    EXPECT_TRUE(std::string(simd::ActiveBackend()) == "avx2" ||
                std::string(simd::ActiveBackend()) == "neon");
  } else {
    EXPECT_STREQ(simd::ActiveBackend(), "scalar");
  }
}

TEST(SimdKernelsTest, MatMulBitIdenticalToScalarAcrossRemainderShapes) {
  SimdToggleGuard guard;
  Rng rng(101);
  for (const Shape& s : kShapes) {
    std::vector<double> a = RandomVec(s.m * s.k, &rng);
    std::vector<double> b = RandomVec(s.k * s.n, &rng);
    std::vector<double> vec_out(s.m * s.n), scalar_out(s.m * s.n);
    simd::SetEnabled(true);
    simd::MatMul(a.data(), b.data(), vec_out.data(), s.m, s.k, s.n);
    simd::SetEnabled(false);
    simd::MatMul(a.data(), b.data(), scalar_out.data(), s.m, s.k, s.n);
    for (size_t i = 0; i < vec_out.size(); ++i) {
      ASSERT_EQ(vec_out[i], scalar_out[i])
          << s.m << "x" << s.k << "x" << s.n << " element " << i;
    }
  }
}

TEST(SimdKernelsTest, TransposeMatMulBitIdenticalToScalarBothModes) {
  SimdToggleGuard guard;
  Rng rng(102);
  for (const Shape& s : kShapes) {
    std::vector<double> a = RandomVec(s.k * s.m, &rng);  // (kdim x m)
    std::vector<double> b = RandomVec(s.k * s.n, &rng);
    for (bool accumulate : {false, true}) {
      std::vector<double> seed = RandomVec(s.m * s.n, &rng);
      std::vector<double> vec_out = seed, scalar_out = seed;
      simd::SetEnabled(true);
      simd::TransposeMatMul(a.data(), b.data(), vec_out.data(), s.m, s.k, s.n,
                            accumulate);
      simd::SetEnabled(false);
      simd::TransposeMatMul(a.data(), b.data(), scalar_out.data(), s.m, s.k,
                            s.n, accumulate);
      for (size_t i = 0; i < vec_out.size(); ++i) {
        ASSERT_EQ(vec_out[i], scalar_out[i])
            << s.m << "x" << s.k << "x" << s.n << " accumulate=" << accumulate
            << " element " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, ElementwiseKernelsBitIdenticalToScalar) {
  SimdToggleGuard guard;
  Rng rng(103);
  for (int n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 31, 64, 65}) {
    std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> y = RandomVec(n, &rng);
    const double alpha = rng.Normal(0.0, 1.0);

    std::vector<double> vec_axpy = y, scalar_axpy = y;
    std::vector<double> vec_add = y, scalar_add = y;
    std::vector<double> vec_sub(n), scalar_sub(n);
    simd::SetEnabled(true);
    simd::Axpy(alpha, x.data(), vec_axpy.data(), n);
    simd::Add(x.data(), vec_add.data(), n);
    simd::Sub(x.data(), y.data(), vec_sub.data(), n);
    simd::SetEnabled(false);
    simd::Axpy(alpha, x.data(), scalar_axpy.data(), n);
    simd::Add(x.data(), scalar_add.data(), n);
    simd::Sub(x.data(), y.data(), scalar_sub.data(), n);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(vec_axpy[i], scalar_axpy[i]) << "Axpy n=" << n << " i=" << i;
      ASSERT_EQ(vec_add[i], scalar_add[i]) << "Add n=" << n << " i=" << i;
      ASSERT_EQ(vec_sub[i], scalar_sub[i]) << "Sub n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelsTest, AdamStepBitIdenticalToScalar) {
  // Gradients include signed zeros, subnormals, values whose square
  // overflows, and non-finite values; every output is compared bit for bit.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kSpecial[] = {0.0,     -0.0,  4.9e-324, -2.5e-310, 1e300,
                             -1e300,  kInf,  -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  const simd::AdamCoeffs coeffs{1e-3, 0.9, 0.999, 1e-8, 1.0 - 0.9 * 0.9 * 0.9,
                                1.0 - 0.999 * 0.999 * 0.999};
  SimdToggleGuard guard;
  Rng rng(107);
  std::vector<int> sizes;
  for (int n = 0; n <= 19; ++n) sizes.push_back(n);
  sizes.push_back(4097);
  for (int n : sizes) {
    std::vector<double> value = RandomVec(n, &rng);
    std::vector<double> grad = RandomVec(n, &rng);
    std::vector<double> m = RandomVec(n, &rng);
    std::vector<double> v = RandomVec(n, &rng);
    for (double& x : v) x = x * x;
    for (int i = 0; i < n; i += 2) {
      grad[i] = kSpecial[(i / 2) % std::size(kSpecial)];
    }
    std::vector<double> outs[2][4];
    for (bool enabled : {true, false}) {
      simd::SetEnabled(enabled);
      std::vector<double>* out = outs[enabled ? 1 : 0];
      out[0] = value;
      out[1] = grad;
      out[2] = m;
      out[3] = v;
      simd::AdamStep(coeffs, out[0].data(), out[1].data(), out[2].data(),
                     out[3].data(), n);
    }
    const char* names[] = {"value", "grad", "m", "v"};
    for (int k = 0; n > 0 && k < 4; ++k) {
      ASSERT_EQ(std::memcmp(outs[0][k].data(), outs[1][k].data(),
                            n * sizeof(double)),
                0)
          << names[k] << " n=" << n;
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(std::signbit(outs[0][1][i]), false) << "grad not +0, i=" << i;
      ASSERT_EQ(outs[0][1][i], 0.0) << "grad not zeroed, i=" << i;
    }
  }
}

TEST(SimdKernelsTest, ReductionsBitIdenticalToScalarAcrossTailLengths) {
  SimdToggleGuard guard;
  Rng rng(104);
  for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 31, 64, 67}) {
    std::vector<double> a = RandomVec(n, &rng);
    std::vector<double> b = RandomVec(n, &rng);
    double vec_dot = 0.0, scalar_dot = 0.0;
    simd::SetEnabled(true);
    simd::MatMulTranspose(a.data(), b.data(), &vec_dot, 1, n, 1);
    double vec_sum = 0.0, vec_sumsq = 0.0;
    simd::SumAndSumSq(a.data(), n, &vec_sum, &vec_sumsq);
    simd::SetEnabled(false);
    simd::MatMulTranspose(a.data(), b.data(), &scalar_dot, 1, n, 1);
    double scalar_sum = 0.0, scalar_sumsq = 0.0;
    simd::SumAndSumSq(a.data(), n, &scalar_sum, &scalar_sumsq);
    ASSERT_EQ(vec_dot, scalar_dot) << "Dot n=" << n;
    ASSERT_EQ(vec_sum, scalar_sum) << "Sum n=" << n;
    ASSERT_EQ(vec_sumsq, scalar_sumsq) << "SumSq n=" << n;
  }
}

TEST(SimdKernelsTest, MatVecAndMatMulTransposeBitIdenticalToScalar) {
  SimdToggleGuard guard;
  Rng rng(105);
  for (const Shape& s : kShapes) {
    std::vector<double> w = RandomVec(s.m * s.k, &rng);
    std::vector<double> bias = RandomVec(s.m, &rng);
    std::vector<double> z = RandomVec(s.k, &rng);
    std::vector<double> bt = RandomVec(s.n * s.k, &rng);  // (n x kdim)

    std::vector<double> vec_mv(s.m), scalar_mv(s.m);
    std::vector<double> vec_mv_nb(s.m), scalar_mv_nb(s.m);
    std::vector<double> vec_mmt(s.m * s.n), scalar_mmt(s.m * s.n);
    simd::SetEnabled(true);
    simd::MatVec(w.data(), bias.data(), z.data(), vec_mv.data(), s.m, s.k);
    simd::MatVec(w.data(), nullptr, z.data(), vec_mv_nb.data(), s.m, s.k);
    simd::MatMulTranspose(w.data(), bt.data(), vec_mmt.data(), s.m, s.k, s.n);
    simd::SetEnabled(false);
    simd::MatVec(w.data(), bias.data(), z.data(), scalar_mv.data(), s.m, s.k);
    simd::MatVec(w.data(), nullptr, z.data(), scalar_mv_nb.data(), s.m, s.k);
    simd::MatMulTranspose(w.data(), bt.data(), scalar_mmt.data(), s.m, s.k,
                          s.n);
    for (int i = 0; i < s.m; ++i) {
      ASSERT_EQ(vec_mv[i], scalar_mv[i]) << "MatVec row " << i;
      ASSERT_EQ(vec_mv_nb[i], scalar_mv_nb[i]) << "MatVec(no bias) row " << i;
    }
    for (size_t i = 0; i < vec_mmt.size(); ++i) {
      ASSERT_EQ(vec_mmt[i], scalar_mmt[i])
          << s.m << "x" << s.k << "x" << s.n << " element " << i;
    }
  }
}

TEST(SimdKernelsTest, DotFollowsTheLaneSplitSpec) {
  // The family-B contract pinned down independently of any backend, on the
  // 1 x 1 MatMulTranspose (one dot product): element i accumulates into
  // logical lane i % kLanes and lanes combine in ascending order. If this
  // test fails the *spec* changed, not a backend.
  Rng rng(106);
  for (int n : {1, 5, 8, 11, 32, 37}) {
    std::vector<double> a = RandomVec(n, &rng);
    std::vector<double> b = RandomVec(n, &rng);
    double lanes[simd::kLanes] = {0.0};
    for (int i = 0; i < n; ++i) lanes[i % simd::kLanes] += a[i] * b[i];
    const double expected = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
    for (bool enabled : {true, false}) {
      SimdToggleGuard guard;
      simd::SetEnabled(enabled);
      double dot = 0.0;
      simd::MatMulTranspose(a.data(), b.data(), &dot, 1, n, 1);
      EXPECT_EQ(dot, expected) << "n=" << n;
    }
  }
}

TEST(SimdKernelsTest, ZeroTimesNonFinitePropagatesNaN) {
  // No kernel may short-circuit zero operands: 0 * Inf and 0 * NaN are NaN
  // and must surface in the output on every backend.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (bool enabled : {true, false}) {
    SimdToggleGuard guard;
    simd::SetEnabled(enabled);

    // MatMul: a has a zero row, b carries an Inf in column 0 and a NaN in
    // column 1 (row-major (3 x 2)).
    std::vector<double> a = {0.0, 0.0, 0.0};
    std::vector<double> b = {kInf, kNaN, 1.0, 2.0, 0.5, 3.0};
    std::vector<double> out(2);
    simd::MatMul(a.data(), b.data(), out.data(), 1, 3, 2);
    EXPECT_TRUE(std::isnan(out[0])) << "backend " << simd::ActiveBackend();
    EXPECT_TRUE(std::isnan(out[1])) << "backend " << simd::ActiveBackend();

    std::vector<double> zero(5, 0.0);
    std::vector<double> with_inf = {1.0, 2.0, kInf, 3.0, 4.0};
    double dot = 0.0;
    simd::MatMulTranspose(zero.data(), with_inf.data(), &dot, 1, 5, 1);
    EXPECT_TRUE(std::isnan(dot));

    std::vector<double> y(5, 1.0);
    simd::Axpy(0.0, with_inf.data(), y.data(), 5);
    EXPECT_TRUE(std::isnan(y[2]));

    double sum = 0.0, sumsq = 0.0;
    std::vector<double> v = {1.0, kInf, -kInf, 2.0, 3.0};
    simd::SumAndSumSq(v.data(), 5, &sum, &sumsq);
    EXPECT_TRUE(std::isnan(sum));  // Inf + (-Inf) inside one lane chain.
    EXPECT_TRUE(std::isinf(sumsq) || std::isnan(sumsq));
  }
}

/// RunReportJson minus the single-line "runtime" section (wall-clock times,
/// pool counters, latency histograms) — everything else in the report is
/// covered by the determinism contract.
std::string StripTimes(const std::string& report) {
  std::string out;
  size_t start = 0;
  while (start < report.size()) {
    size_t end = report.find('\n', start);
    if (end == std::string::npos) end = report.size();
    const std::string line = report.substr(start, end - start);
    if (line.rfind("  \"runtime\":", 0) != 0) {
      out += line;
      out += '\n';
    }
    start = end + 1;
  }
  return out;
}

TEST(SimdKernelsTest, EngineRunReportByteIdenticalAcrossSimdAndThreads) {
  SimdToggleGuard guard;
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 73;
  Dataset ds = MakeClassification(spec);

  EngineConfig cfg;
  cfg.episodes = 4;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.seed = 4242;

  std::string reference;
  for (bool simd_on : {true, false}) {
    for (int threads : {1, 4}) {
      simd::SetEnabled(simd_on);
      EngineConfig run_cfg = cfg;
      run_cfg.num_threads = threads;
      EngineResult result = FastFtEngine(run_cfg).Run(ds).ValueOrDie();
      const std::string report = StripTimes(RunReportJson(ds, result));
      if (reference.empty()) {
        reference = report;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(report, reference)
            << "simd=" << simd_on << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace fastft
