// Parallel evaluation pipeline: serial vs multi-threaded wall clock on the
// Table I evaluation workload, asserting bit-identical metric values.
//
// Two layers of the pipeline are timed:
//   folds  — one dataset's k folds fan out (Evaluator::Evaluate), the one
//            level the shared pool runs,
//   engine — a full FastFT run, num_threads 1 vs N.
//
// Determinism is the hard requirement: every parallel score must equal its
// serial counterpart bit for bit (per-fold seeds are derived up front;
// reductions run in fold order). The >= 2x fold speedup is a timing check:
// it is printed, never gated, and skipped on machines with fewer than 2
// hardware threads.

#include <cinttypes>

#include "bench_util.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

constexpr int kThreads = 4;

int main_impl() {
  bench::PrintTitle("Parallel evaluation — serial vs " +
                    std::to_string(kThreads) +
                    " threads (Table I evaluation workload)");
  const int hardware = common::ResolveThreadCount(0);
  std::printf("hardware threads: %d\n", hardware);

  // The Table I evaluator configuration (bench_util defaults).
  EvaluatorConfig serial_config;
  serial_config.folds = 3;
  serial_config.forest_trees = 8;
  serial_config.num_threads = 1;
  EvaluatorConfig parallel_config = serial_config;
  parallel_config.num_threads = kThreads;

  Evaluator serial_eval(serial_config);
  Evaluator parallel_eval(parallel_config);

  // --- Layer 1: fold-level fan-out on one dataset. -----------------------
  SyntheticSpec big;
  big.samples = 1200;
  big.features = 12;
  big.seed = 77;
  Dataset large = MakeClassification(big);

  WallTimer timer;
  const double fold_serial_score = serial_eval.Evaluate(large);
  const double fold_serial_s = timer.Seconds();
  timer.Restart();
  const double fold_parallel_score = parallel_eval.Evaluate(large);
  const double fold_parallel_s = timer.Seconds();
  const bool fold_identical = fold_serial_score == fold_parallel_score;
  const double fold_speedup =
      fold_parallel_s > 0 ? fold_serial_s / fold_parallel_s : 0.0;
  std::printf("folds   %4d rows x 3     serial %.3fs   %d-thread %.3fs   "
              "speedup %.2fx   scores %s\n",
              big.samples, fold_serial_s, kThreads, fold_parallel_s,
              fold_speedup, fold_identical ? "bit-identical" : "DIFFER");

  // --- Layer 2: full engine run. -----------------------------------------
  SyntheticSpec engine_spec;
  engine_spec.samples = 200;
  engine_spec.features = 8;
  engine_spec.seed = 9;
  Dataset engine_ds = MakeClassification(engine_spec);

  EngineConfig serial_engine = bench::DefaultEngineConfig(2024);
  serial_engine.episodes = 6;
  serial_engine.num_threads = 1;
  EngineConfig parallel_engine = serial_engine;
  parallel_engine.num_threads = kThreads;

  timer.Restart();
  EngineResult serial_run =
      FastFtEngine(serial_engine).Run(engine_ds).ValueOrDie();
  const double engine_serial_s = timer.Seconds();
  timer.Restart();
  EngineResult parallel_run =
      FastFtEngine(parallel_engine).Run(engine_ds).ValueOrDie();
  const double engine_parallel_s = timer.Seconds();

  bool engine_identical =
      serial_run.base_score == parallel_run.base_score &&
      serial_run.best_score == parallel_run.best_score &&
      serial_run.trace.size() == parallel_run.trace.size();
  if (engine_identical) {
    for (size_t i = 0; i < serial_run.trace.size(); ++i) {
      engine_identical &=
          serial_run.trace[i].reward == parallel_run.trace[i].reward &&
          serial_run.trace[i].performance == parallel_run.trace[i].performance;
    }
  }
  std::printf("engine  %2d episodes      serial %.3fs   %d-thread %.3fs   "
              "speedup %.2fx   run %s (%" PRId64 " downstream evals)\n",
              serial_engine.episodes, engine_serial_s, kThreads,
              engine_parallel_s,
              engine_parallel_s > 0 ? engine_serial_s / engine_parallel_s : 0.0,
              engine_identical ? "bit-identical" : "DIFFERS",
              serial_run.downstream_evaluations);

  bench::ShapeCheck(fold_identical && engine_identical,
                    "parallel evaluation reproduces serial metric values bit "
                    "for bit at every layer");
  if (hardware >= 2) {
    bench::TimingCheck(fold_speedup >= 2.0,
                       "fold-parallel evaluation >= 2x faster at " +
                           std::to_string(kThreads) + " threads");
  } else {
    std::printf("paper-shape check: [SKIP] >= 2x speedup needs >= 2 hardware "
                "threads (this host has %d; determinism still asserted)\n",
                hardware);
  }
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
