// Determinism guarantees of the parallel evaluation pipeline: every score
// produced with num_threads > 1 must equal its serial counterpart bit for
// bit (per-fold/per-tree seeds are derived up front and reductions run in
// index order), and shared evaluator state must be race-free (this binary is
// the TSan regression suite for the pipeline — see tools/check_sanitize.sh).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ml/evaluator.h"

namespace fastft {
namespace {

Dataset Classification(int n = 220, uint64_t seed = 9) {
  SyntheticSpec spec;
  spec.samples = n;
  spec.features = 8;
  spec.seed = seed;
  return MakeClassification(spec);
}

EvaluatorConfig EvalConfig(int num_threads) {
  EvaluatorConfig ec;
  ec.seed = 77;
  ec.folds = 3;
  ec.forest_trees = 8;
  ec.num_threads = num_threads;
  return ec;
}

TEST(ParallelDeterminismTest, FoldParallelEvaluateIsBitIdentical) {
  Dataset ds = Classification();
  Evaluator serial(EvalConfig(1));
  Evaluator parallel(EvalConfig(4));
  // Exact comparison on purpose: the contract is bit-identity, not
  // tolerance-level agreement.
  EXPECT_EQ(serial.Evaluate(ds), parallel.Evaluate(ds));
}

TEST(ParallelDeterminismTest, SharedPresortIsBitIdenticalAcrossThreadCounts) {
  // Every fold's forest fits from a view of one presort of the dataset;
  // under fold-level threads the folds read that presort concurrently and
  // fit side by side. That may not move a bit of the scores or the
  // importances.
  SyntheticSpec spec;
  spec.samples = 300;
  spec.features = 9;
  spec.seed = 23;
  const Dataset regression = MakeRegression(spec);
  const Dataset classification = Classification(300, 21);
  for (const Dataset* ds : {&classification, &regression}) {
    EvaluatorConfig serial_cfg = EvalConfig(1);
    serial_cfg.forest_trees = 12;
    const Evaluator serial(serial_cfg);
    const double expected = serial.Evaluate(*ds);
    const std::vector<double> expected_importance =
        serial.FeatureImportance(*ds);
    for (int fold_threads : {1, 2, 4}) {
      EvaluatorConfig cfg = serial_cfg;
      cfg.num_threads = fold_threads;
      const Evaluator parallel(cfg);
      EXPECT_EQ(parallel.Evaluate(*ds), expected) << fold_threads;
      EXPECT_EQ(parallel.FeatureImportance(*ds), expected_importance)
          << fold_threads;
    }
  }
}

TEST(ParallelDeterminismTest, EngineRunIsBitIdenticalAcrossThreadCounts) {
  SyntheticSpec spec;
  spec.samples = 140;
  spec.features = 7;
  spec.seed = 50;
  Dataset ds = MakeClassification(spec);

  EngineConfig serial_cfg;
  serial_cfg.episodes = 5;
  serial_cfg.steps_per_episode = 4;
  serial_cfg.cold_start_episodes = 2;
  serial_cfg.finetune_every_episodes = 2;
  serial_cfg.cold_start_train_epochs = 4;
  serial_cfg.evaluator.folds = 2;
  serial_cfg.evaluator.forest_trees = 6;
  serial_cfg.seed = 2024;
  serial_cfg.num_threads = 1;
  EngineConfig parallel_cfg = serial_cfg;
  parallel_cfg.num_threads = 4;

  EngineResult a = FastFtEngine(serial_cfg).Run(ds).ValueOrDie();
  EngineResult b = FastFtEngine(parallel_cfg).Run(ds).ValueOrDie();

  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].reward, b.trace[i].reward) << "step " << i;
    EXPECT_EQ(a.trace[i].performance, b.trace[i].performance) << "step " << i;
  }
}

TEST(ParallelDeterminismTest, ObservabilityNeverChangesEngineOutputs) {
  // The tracing layer only reads clocks, so a traced run must be
  // bit-identical to an untraced one — at any thread count. Wall-clock
  // fields (times, span durations) are excluded by construction: the
  // comparison covers scores and traces.
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 51;
  Dataset ds = MakeClassification(spec);

  EngineConfig base_cfg;
  base_cfg.episodes = 4;
  base_cfg.steps_per_episode = 4;
  base_cfg.cold_start_episodes = 2;
  base_cfg.evaluator.folds = 2;
  base_cfg.evaluator.forest_trees = 6;
  base_cfg.seed = 99;
  base_cfg.num_threads = 1;
  EngineResult plain = FastFtEngine(base_cfg).Run(ds).ValueOrDie();

  const std::string trace_path =
      ::testing::TempDir() + "/fastft_determinism_trace.json";
  for (int threads : {1, 4}) {
    EngineConfig obs_cfg = base_cfg;
    obs_cfg.num_threads = threads;
    obs_cfg.trace_path = trace_path;
    EngineResult observed = FastFtEngine(obs_cfg).Run(ds).ValueOrDie();

    EXPECT_EQ(plain.base_score, observed.base_score) << threads;
    EXPECT_EQ(plain.best_score, observed.best_score) << threads;
    EXPECT_EQ(plain.downstream_evaluations, observed.downstream_evaluations)
        << threads;
    EXPECT_EQ(plain.total_steps, observed.total_steps) << threads;
    ASSERT_EQ(plain.trace.size(), observed.trace.size()) << threads;
    for (size_t i = 0; i < plain.trace.size(); ++i) {
      EXPECT_EQ(plain.trace[i].reward, observed.trace[i].reward)
          << threads << " step " << i;
      EXPECT_EQ(plain.trace[i].performance, observed.trace[i].performance)
          << threads << " step " << i;
      EXPECT_EQ(plain.trace[i].novelty, observed.trace[i].novelty)
          << threads << " step " << i;
    }
    // The run's counted work is itself deterministic.
    EXPECT_EQ(observed.metrics.CounterValue("evaluator.evaluations") +
                  observed.metrics.CounterValue("evaluator.memo_hits"),
              observed.downstream_evaluations)
        << threads;
    std::remove(trace_path.c_str());
  }
}

TEST(ParallelDeterminismTest, EvaluationCountIsRaceFreeUnderConcurrentUse) {
  // Regression for the `mutable int evaluation_count_` data race: hammer one
  // evaluator from several threads and check the atomic counters are exact.
  // Under FASTFT_SANITIZE=thread this also proves the const path is
  // race-free; two fold threads per call make the fold counters concurrent
  // within one call as well.
  Dataset ds = Classification(80);
  const EvaluatorConfig config = EvalConfig(2);
  Evaluator evaluator(config);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&evaluator, &ds] {
      for (int i = 0; i < kCallsPerThread; ++i) evaluator.Evaluate(ds);
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t calls = kThreads * kCallsPerThread;
  EXPECT_EQ(evaluator.evaluation_count(), calls);
  EXPECT_EQ(evaluator.fold_count(), calls * config.folds);
  EXPECT_EQ(evaluator.skipped_fold_count(), 0);
  EXPECT_EQ(evaluator.trees_fit(), evaluator.fold_count() * config.forest_trees);
}

}  // namespace
}  // namespace fastft
