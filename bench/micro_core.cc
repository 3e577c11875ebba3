// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: operation application, MI estimation, clustering, state
// representation, predictor inference and training (BM_TrainStep, split into
// forward, backward and apply), and — the paper's central contrast — one
// predictor forward pass vs. one full downstream evaluation.
//
// Before the google-benchmark suite runs, a per-kernel scalar-vs-SIMD gate
// times every simd_kernels entry point at representative shapes (plus the
// LSTM weight-gradient shape of TransposeMatMul) in interleaved
// scalar/SIMD pairs, asserts the outputs are bit-identical, and persists the
// median speedup and its quartiles to BENCH_kernels.json (atomic write,
// beside BENCH_robustness.json) so the kernel perf trajectory is
// machine-checkable across PRs. A second ledger times forest and boosting
// fits, and whole k-fold Evaluator::Evaluate calls, at the engine
// benchmark's shapes and persists their median and quartiles to
// BENCH_forest.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "common/timer.h"
#include "core/clustering.h"
#include "core/mutual_information.h"
#include "core/performance_predictor.h"
#include "core/state.h"
#include "data/synthetic.h"
#include "ml/evaluator.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "nn/sequence_model.h"

namespace fastft {
namespace {

// --- Scalar-vs-SIMD kernel gate -------------------------------------------

std::vector<double> GateVec(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Normal(0.0, 1.0);
  return v;
}

/// Scalar/SIMD timing pairs per kernel. Each pair times both backends back
/// to back, so host load that drifts over the gate hits both sides of a
/// ratio alike; the gate reads the median ratio.
constexpr int kGatePairs = 9;

/// Wall time of `reps` back-to-back kernel invocations.
template <typename Fn>
double TimeKernel(int reps, const Fn& fn) {
  WallTimer timer;
  for (int r = 0; r < reps; ++r) fn();
  return timer.Seconds();
}

struct KernelResult {
  const char* name;
  bool matmul_family;  // the kernels under the >= 2x acceptance gate
  /// Medians over the pairs.
  double scalar_s = 0.0;
  double simd_s = 0.0;
  /// Quartiles of the per-pair scalar/SIMD time ratio.
  double speedup_q1 = 0.0;
  double speedup = 0.0;
  double speedup_q3 = 0.0;
  bool identical = false;
};

/// Runs `fn` (which writes into `out`) under both backends, checks the two
/// outputs bit for bit, and times kGatePairs interleaved scalar/SIMD pairs
/// (the backend that goes first alternates).
template <typename Fn>
KernelResult RunKernelGate(const char* name, bool matmul_family, int reps,
                           std::vector<double>* out, const Fn& fn) {
  KernelResult result{name, matmul_family};
  simd::SetEnabled(false);
  fn();
  std::vector<double> scalar_out = *out;
  simd::SetEnabled(true);
  fn();
  result.identical = (*out == scalar_out);
  std::vector<double> scalar_s, simd_s, ratio;
  for (int pair = 0; pair < kGatePairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // [scalar, simd]
    for (int half = 0; half < 2; ++half) {
      const int backend = (pair + half) % 2;
      simd::SetEnabled(backend == 1);
      seconds[backend] = TimeKernel(reps, fn);
    }
    scalar_s.push_back(seconds[0]);
    simd_s.push_back(seconds[1]);
    ratio.push_back(seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0);
  }
  simd::SetEnabled(true);
  result.scalar_s = Quantile(scalar_s, 0.5);
  result.simd_s = Quantile(simd_s, 0.5);
  result.speedup_q1 = Quantile(ratio, 0.25);
  result.speedup = Quantile(ratio, 0.5);
  result.speedup_q3 = Quantile(ratio, 0.75);
  return result;
}

/// Times every simd_kernels entry point scalar-vs-vector, persists
/// BENCH_kernels.json, and returns 0 iff every pair was bit-identical.
int KernelGate() {
  bench::PrintTitle("SIMD kernel gate (scalar vs " +
                    std::string(simd::VectorBackendAvailable()
                                    ? simd::ActiveBackend()
                                    : "none") +
                    ")");
  Rng rng(77);
  // Representative shapes: the predictor's LSTM works on hidden 32 →
  // W (128 x 64); batch forward passes run ~100-row activations against
  // 64-wide layers.
  const int m = 96, kdim = 64, n = 64;
  const int mv_rows = 128, mv_cols = 64;
  const int vec_n = 4096;

  std::vector<double> a = GateVec(m * kdim, &rng);
  std::vector<double> b = GateVec(kdim * n, &rng);
  std::vector<double> at = GateVec(kdim * m, &rng);   // (kdim x m)
  std::vector<double> bt = GateVec(n * kdim, &rng);   // (n x kdim)
  std::vector<double> w = GateVec(mv_rows * mv_cols, &rng);
  std::vector<double> bias = GateVec(mv_rows, &rng);
  std::vector<double> z = GateVec(mv_cols, &rng);
  std::vector<double> x = GateVec(vec_n, &rng);
  std::vector<double> out(static_cast<size_t>(m) * n);
  std::vector<double> small_out(std::max(mv_rows, vec_n));

  std::vector<KernelResult> results;
  results.push_back(RunKernelGate("matmul", true, 200, &out, [&] {
    simd::MatMul(a.data(), b.data(), out.data(), m, kdim, n);
  }));
  results.push_back(RunKernelGate("transpose_matmul", true, 200, &out, [&] {
    simd::TransposeMatMul(at.data(), b.data(), out.data(), m, kdim, n,
                          /*accumulate=*/false);
  }));
  // The LSTM weight-gradient product: dgates (len x 4h)ᵀ · z (len x zdim)
  // added into dW, at h = 32, zdim = 64 and len = 64.
  const int lstm_rows = 128, lstm_len = 64, lstm_zdim = 64;
  std::vector<double> dgates = GateVec(lstm_len * lstm_rows, &rng);
  std::vector<double> zrows = GateVec(lstm_len * lstm_zdim, &rng);
  std::vector<double> dw(static_cast<size_t>(lstm_rows) * lstm_zdim);
  results.push_back(
      RunKernelGate("transpose_matmul_lstm", false, 200, &dw, [&] {
        std::fill(dw.begin(), dw.end(), 0.0);
        simd::TransposeMatMul(dgates.data(), zrows.data(), dw.data(),
                              lstm_rows, lstm_len, lstm_zdim,
                              /*accumulate=*/true);
      }));
  results.push_back(RunKernelGate("matmul_transpose", true, 200, &out, [&] {
    simd::MatMulTranspose(a.data(), bt.data(), out.data(), m, kdim, n);
  }));
  results.push_back(RunKernelGate("matvec", false, 4000, &small_out, [&] {
    simd::MatVec(w.data(), bias.data(), z.data(), small_out.data(), mv_rows,
                 mv_cols);
  }));
  results.push_back(RunKernelGate("axpy", false, 8000, &small_out, [&] {
    std::fill(small_out.begin(), small_out.end(), 0.0);
    simd::Axpy(1.25, x.data(), small_out.data(), vec_n);
  }));
  results.push_back(RunKernelGate("sum_and_sumsq", false, 8000, &small_out,
                                  [&] {
    simd::SumAndSumSq(x.data(), vec_n, &small_out[0], &small_out[1]);
  }));
  // One Adam step of a 4096-parameter tensor from a fixed state; the output
  // holds the updated values, then m, then v.
  const std::vector<double> adam_grad = GateVec(vec_n, &rng);
  const std::vector<double> adam_m = GateVec(vec_n, &rng);
  std::vector<double> adam_v = GateVec(vec_n, &rng);
  for (double& value : adam_v) value = value * value;
  const simd::AdamCoeffs adam{1e-3, 0.9, 0.999, 1e-8, 1.0 - 0.9 * 0.9,
                              1.0 - 0.999 * 0.999};
  std::vector<double> adam_out(3 * static_cast<size_t>(vec_n));
  std::vector<double> adam_g(vec_n);
  results.push_back(RunKernelGate("adam_step", false, 2000, &adam_out, [&] {
    double* value = adam_out.data();
    double* m1 = value + vec_n;
    double* v1 = m1 + vec_n;
    std::copy(x.begin(), x.end(), value);
    std::copy(adam_m.begin(), adam_m.end(), m1);
    std::copy(adam_v.begin(), adam_v.end(), v1);
    std::copy(adam_grad.begin(), adam_grad.end(), adam_g.begin());
    simd::AdamStep(adam, value, adam_g.data(), m1, v1, vec_n);
  }));
  simd::SetEnabled(true);

  bool all_identical = true;
  for (const KernelResult& r : results) {
    all_identical = all_identical && r.identical;
    std::printf(
        "%-22s scalar %8.3f ms   simd %8.3f ms   speedup %5.2fx "
        "[%.2f, %.2f]   %s\n",
        r.name, 1e3 * r.scalar_s, 1e3 * r.simd_s, r.speedup, r.speedup_q1,
        r.speedup_q3, r.identical ? "bit-identical" : "DIFFER");
  }

  const bool vector_available = simd::VectorBackendAvailable();
  bool matmul_gate = true;
  for (const KernelResult& r : results) {
    if (r.matmul_family) matmul_gate = matmul_gate && r.speedup >= 2.0;
  }
  bench::ShapeCheck(all_identical,
                    "every kernel is bit-identical scalar vs SIMD");
  if (vector_available) {
    bench::ShapeCheck(matmul_gate,
                      "MatMul-family kernels >= 2x (median of " +
                          std::to_string(kGatePairs) +
                          " interleaved pairs) with FASTFT_SIMD=ON at "
                          "representative shapes");
  } else {
    std::printf("paper-shape check: [SKIP] >= 2x gate needs a vector backend "
                "(this build/host runs scalar only)\n");
  }

  std::ostringstream json;
  json << "{\n";
  json << "    \"pairs\": " << kGatePairs << ",\n";
  json << "    \"shapes\": {\"matmul\": [" << m << ", " << kdim << ", " << n
       << "], \"transpose_matmul_lstm\": [" << lstm_rows << ", " << lstm_len
       << ", " << lstm_zdim << "], \"matvec\": [" << mv_rows << ", "
       << mv_cols << "], \"vector_n\": " << vec_n << "},\n";
  json << "    \"kernels\": {\n";
  bool first = true;
  for (const KernelResult& r : results) {
    json << (first ? "" : ",\n") << "      \"" << r.name << "\": {"
         << "\"scalar_ms\": " << 1e3 * r.scalar_s
         << ", \"simd_ms\": " << 1e3 * r.simd_s
         << ", \"speedup\": " << r.speedup
         << ", \"speedup_q1\": " << r.speedup_q1
         << ", \"speedup_q3\": " << r.speedup_q3
         << ", \"bit_identical\": " << (r.identical ? "true" : "false")
         << "}";
    first = false;
  }
  json << "\n    },\n";
  json << "    \"matmul_family_gate_2x\": "
       << (vector_available ? (matmul_gate ? "true" : "false") : "null")
       << ",\n";
  json << "    \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << "\n  }";
  bench::PersistLedger("BENCH_kernels.json", "micro_core_kernels",
                       json.str());
  return all_identical ? 0 : 1;
}

Dataset BenchDataset(int samples = 500, int features = 16) {
  SyntheticSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.seed = 5;
  return MakeClassification(spec);
}

// --- Forest-fit ledger ------------------------------------------------------

/// One downstream model fit, or one k-fold evaluation, at a shape the
/// engine benchmark produces.
struct FitShape {
  const char* name;
  int rows;
  int features;
  /// Forest trees; 0 fits a GradientBoosting model at its defaults instead.
  int trees;
  /// >0: one serial Evaluator::Evaluate of a forest over `rows` rows with
  /// this many folds, instead of one fit.
  int folds = 0;
};

// eval_bound: one fold's training split (3/4 of 1000 rows) over the 28-column
// feature budget, 12 trees. explore: about two thirds of 300 rows over the
// 32 originals plus 16 generated columns, at the evaluator's default 8 trees.
// The evaluate_* rows time the whole k-fold evaluation at those shapes.
constexpr FitShape kFitShapes[] = {
    {"forest_eval_bound", 750, 28, 12},
    {"forest_explore", 200, 48, 8},
    {"boosting_eval_bound", 750, 28, 0},
    {"evaluate_eval_bound", 1000, 28, 12, 4},
    {"evaluate_explore", 300, 48, 8, 3},
};

struct FitInput {
  Dataset dataset;
  Rows x;
};

FitInput MakeFitInput(const FitShape& shape) {
  Dataset ds = BenchDataset(shape.rows, shape.features);
  Rows x = ds.features.ToRows();
  return {std::move(ds), std::move(x)};
}

void FitOnce(const FitShape& shape, const FitInput& input) {
  const std::vector<double>& y = input.dataset.labels;
  if (shape.folds > 0) {
    EvaluatorConfig ec;
    ec.folds = shape.folds;
    ec.forest_trees = shape.trees;
    benchmark::DoNotOptimize(Evaluator(ec).Evaluate(input.dataset));
  } else if (shape.trees > 0) {
    ForestConfig fc;
    fc.num_trees = shape.trees;
    RandomForest forest(fc);
    forest.Fit(input.x, y);
    benchmark::DoNotOptimize(forest);
  } else {
    GradientBoosting boosting;
    boosting.Fit(input.x, y);
    benchmark::DoNotOptimize(boosting);
  }
}

/// Times every kFitShapes entry (one warm-up, then kReps reps of kFitsPerRep
/// back-to-back fits each) and persists per-fit median and quartiles.
void ForestLedger() {
  constexpr int kReps = 9;
  constexpr int kFitsPerRep = 5;
  bench::PrintTitle("Forest-fit ledger (" + std::to_string(kReps) +
                    " reps x " + std::to_string(kFitsPerRep) + " fits)");
  std::ostringstream json;
  json << "{\n    \"reps\": " << kReps << ",\n    \"fits_per_rep\": "
       << kFitsPerRep << ",\n    \"fits\": {\n";
  bool first = true;
  for (const FitShape& shape : kFitShapes) {
    const FitInput input = MakeFitInput(shape);
    FitOnce(shape, input);
    std::vector<double> per_fit_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      WallTimer timer;
      for (int i = 0; i < kFitsPerRep; ++i) FitOnce(shape, input);
      per_fit_ms.push_back(1e3 * timer.Seconds() / kFitsPerRep);
    }
    const double median = Quantile(per_fit_ms, 0.5);
    const double q1 = Quantile(per_fit_ms, 0.25);
    const double q3 = Quantile(per_fit_ms, 0.75);
    std::printf(
        "%-20s %4d x %2d  trees %2d  folds %d   median %8.3f ms   IQR %.3f "
        "ms\n",
        shape.name, shape.rows, shape.features, shape.trees, shape.folds,
        median, q3 - q1);
    json << (first ? "" : ",\n") << "      \"" << shape.name << "\": {"
         << "\"rows\": " << shape.rows << ", \"features\": " << shape.features
         << ", \"trees\": " << shape.trees << ", \"folds\": " << shape.folds
         << ", \"median_ms\": " << median
         << ", \"q1_ms\": " << q1 << ", \"q3_ms\": " << q3
         << ", \"iqr_ms\": " << q3 - q1 << "}";
    first = false;
  }
  json << "\n    }\n  }";
  bench::PersistLedger("BENCH_forest.json", "micro_core_forest", json.str());
}

void BM_ApplyBinaryOp(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> a(state.range(0)), b(state.range(0));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyBinary(OpType::kDiv, a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyBinaryOp)->Arg(1000)->Arg(10000);

void BM_QuantileBin(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> v(state.range(0));
  for (double& x : v) x = rng.Normal();
  for (auto _ : state) benchmark::DoNotOptimize(QuantileBin(v, 8));
}
BENCHMARK(BM_QuantileBin)->Arg(500)->Arg(5000);

void BM_MutualInformation(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> a(state.range(0)), b(state.range(0));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
    b[i] = a[i] + rng.Normal();
  }
  std::vector<int> ba = QuantileBin(a, 8), bb = QuantileBin(b, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscreteMutualInformation(ba, bb));
  }
}
BENCHMARK(BM_MutualInformation)->Arg(500)->Arg(5000);

// A feature space with `originals` columns and the engine's budget rule.
FeatureSpace BenchSpace(int originals) {
  FeatureSpaceConfig config;
  config.max_features = std::max(config.max_features, originals + 16);
  return FeatureSpace(BenchDataset(400, originals), config);
}

// One crossing of about ten new columns, as an engine step makes.
void CrossOnce(FeatureSpace* space, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> head, tail;
  for (int k = 0; k < 4; ++k) {
    head.push_back(rng.UniformInt(space->NumColumns()));
    tail.push_back(rng.UniformInt(space->NumColumns()));
  }
  space->ApplyOperation(OpType::kMul, head, tail, &rng);
}

// First clustering of a fresh space: every pair of columns is computed.
void BM_ClusterFeaturesCold(benchmark::State& state) {
  const FeatureSpace fresh = BenchSpace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    FeatureSpace space = fresh;
    state.ResumeTiming();
    benchmark::DoNotOptimize(ClusterFeatures(space));
  }
}
BENCHMARK(BM_ClusterFeaturesCold)->Arg(32)->Arg(48);

// The per-step cost the engine pays: a full space, clustered at the last
// step, gains about ten columns, the budget evicts as many, and only pairs
// with a new column are computed.
void BM_ClusterFeaturesSteady(benchmark::State& state) {
  FeatureSpace warm = BenchSpace(static_cast<int>(state.range(0)));
  for (uint64_t step = 0; step < 4; ++step) CrossOnce(&warm, step);
  ClusterFeatures(warm);
  for (auto _ : state) {
    state.PauseTiming();
    FeatureSpace space = warm;
    CrossOnce(&space, 99);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ClusterFeatures(space));
  }
}
BENCHMARK(BM_ClusterFeaturesSteady)->Arg(32)->Arg(48);

void BM_StateRepresentation(benchmark::State& state) {
  Dataset ds = BenchDataset(400, 16);
  FeatureSpace space(ds);
  for (auto _ : state) benchmark::DoNotOptimize(FeatureSetState(space));
}
BENCHMARK(BM_StateRepresentation);

void BM_PredictorForward(benchmark::State& state) {
  PredictorConfig cfg;
  PerformancePredictor predictor(cfg);
  Rng rng(4);
  std::vector<int> tokens(state.range(0));
  for (int& t : tokens) t = rng.UniformInt(60);
  for (auto _ : state) benchmark::DoNotOptimize(predictor.Predict(tokens));
}
BENCHMARK(BM_PredictorForward)->Arg(32)->Arg(128);

// The paper's headline contrast: estimating a reward with one forward pass
// vs. running the full k-fold downstream evaluation.
void BM_DownstreamEvaluation(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 16);
  Evaluator evaluator;
  for (auto _ : state) benchmark::DoNotOptimize(evaluator.Evaluate(ds));
}
BENCHMARK(BM_DownstreamEvaluation)->Arg(200)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// One model fit per iteration at each kFitShapes entry (the ledger above owns
// the persisted numbers).
void BM_ForestFit(benchmark::State& state) {
  const FitShape& shape = kFitShapes[state.range(0)];
  const FitInput input = MakeFitInput(shape);
  for (auto _ : state) FitOnce(shape, input);
  state.SetLabel(shape.name);
}
BENCHMARK(BM_ForestFit)->DenseRange(0, std::size(kFitShapes) - 1)
    ->Unit(benchmark::kMillisecond);

double FirstQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.25);
}
double ThirdQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.75);
}

// One training step of the predictor's default network (embedding,
// 2 x LSTM(32), head {16, 1}) on a sequence of L tokens, split into phases:
// forward (one Forward), backward (one TrainStep, which is forward plus
// backward, minus that Forward) and apply (ApplyStep). The iteration time is
// TrainStep + ApplyStep; the repetitions give each phase's median and
// quartiles.
void BM_TrainStep(benchmark::State& state) {
  nn::SequenceModel model{nn::SequenceModelConfig{}};
  Rng rng(8);
  std::vector<int> tokens(state.range(0));
  for (int& t : tokens) t = rng.UniformInt(model.config().vocab_size);
  double forward_s = 0.0, backward_s = 0.0, apply_s = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    benchmark::DoNotOptimize(model.Forward(tokens));
    const double forward = timer.Seconds();
    timer.Restart();
    benchmark::DoNotOptimize(model.TrainStep(tokens, 0.5));
    const double train = timer.Seconds();
    timer.Restart();
    model.ApplyStep();
    const double apply = timer.Seconds();
    forward_s += forward;
    backward_s += train - forward;
    apply_s += apply;
    state.SetIterationTime(train + apply);
  }
  const auto per_step_us = [](double seconds) {
    return benchmark::Counter(1e6 * seconds,
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["forward_us"] = per_step_us(forward_s);
  state.counters["backward_us"] = per_step_us(backward_s);
  state.counters["apply_us"] = per_step_us(apply_s);
}
BENCHMARK(BM_TrainStep)->Arg(32)->Arg(64)->Arg(128)->UseManualTime()
    ->Repetitions(9)->ReportAggregatesOnly(true)
    ->ComputeStatistics("q1", FirstQuartile)
    ->ComputeStatistics("q3", ThirdQuartile)
    ->Unit(benchmark::kMicrosecond);

// The hot matrix product at the gate's shape, through the dispatcher, for
// profiling runs (the gate above owns the scalar-vs-SIMD comparison).
void BM_SimdMatMul(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  Rng rng(6);
  const int m = 96, kdim = 64, n = 64;
  std::vector<double> a(m * kdim), b(kdim * n), out(m * n);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  simd::SetEnabled(use_simd);
  for (auto _ : state) {
    simd::MatMul(a.data(), b.data(), out.data(), m, kdim, n);
    benchmark::DoNotOptimize(out.data());
  }
  simd::SetEnabled(true);
  state.SetLabel(use_simd && simd::VectorBackendAvailable() ? "vector"
                                                            : "scalar");
}
BENCHMARK(BM_SimdMatMul)->Arg(0)->Arg(1);

}  // namespace
}  // namespace fastft

int main(int argc, char** argv) {
  const int gate_rc = fastft::KernelGate();
  fastft::ForestLedger();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gate_rc;
}
