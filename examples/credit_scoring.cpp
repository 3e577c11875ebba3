// Credit-scoring scenario: FastFT vs. representative baselines, and the
// robustness of the generated features across downstream model families
// (the paper's Table III study on German Credit).

#include <cstdio>

#include "baselines/baseline.h"
#include "core/engine.h"
#include "data/dataset_zoo.h"
#include "ml/evaluator.h"

int main() {
  fastft::Dataset dataset =
      fastft::LoadZooDataset("German Credit").ValueOrDie();
  std::printf("German Credit counterpart: %d applicants, %d attributes\n\n",
              dataset.NumRows(), dataset.NumFeatures());

  // --- FastFT ---
  fastft::EngineConfig config;
  config.episodes = 10;
  config.steps_per_episode = 8;
  config.cold_start_episodes = 3;
  config.seed = 31;
  fastft::FastFtEngine engine(config);
  fastft::EngineResult fastft_result = engine.Run(dataset).ValueOrDie();
  std::printf("%-8s F1 %.4f  (base %.4f, %lld downstream evals)\n", "FastFT",
              fastft_result.best_score, fastft_result.base_score,
              static_cast<long long>(fastft_result.downstream_evaluations));

  // --- A few baselines for comparison ---
  fastft::BaselineConfig bc;
  bc.seed = 31;
  for (const char* name : {"RFG", "AFT", "OpenFE", "GRFG"}) {
    fastft::BaselineResult r =
        fastft::RunBaseline(name, bc, dataset).ValueOrDie();
    std::printf("%-8s F1 %.4f  (%.1fs, %lld downstream evals)\n", name,
                r.score, r.runtime_seconds,
                static_cast<long long>(r.downstream_evaluations));
  }

  // --- Robustness: evaluate FastFT's transformed dataset under six
  //     downstream model families (Table III). ---
  std::printf("\nrobustness of the FastFT feature set across models:\n");
  const fastft::ModelKind kinds[] = {
      fastft::ModelKind::kRandomForest,  fastft::ModelKind::kGradientBoosting,
      fastft::ModelKind::kLogisticRegression, fastft::ModelKind::kLinearSvm,
      fastft::ModelKind::kRidge,         fastft::ModelKind::kDecisionTree};
  for (fastft::ModelKind kind : kinds) {
    fastft::EvaluatorConfig ec;
    ec.model = kind;
    fastft::Evaluator evaluator(ec);
    double base = evaluator.Evaluate(dataset);
    double transformed = evaluator.Evaluate(fastft_result.best_dataset);
    std::printf("  %-8s base %.4f → transformed %.4f (%+.4f)\n",
                fastft::ModelKindName(kind), base, transformed,
                transformed - base);
  }
  return 0;
}
