// Quickstart: run FastFT end-to-end on one dataset and inspect the result.
//
//   $ ./quickstart [dataset-name]
//
// Loads a dataset from the built-in zoo (default: "Pima Indian"), runs the
// FastFT engine, and prints the downstream improvement plus the traceable
// expressions of the generated features.

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "data/dataset_zoo.h"

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "Pima Indian";

  fastft::Result<fastft::Dataset> loaded = fastft::LoadZooDataset(name);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    std::fprintf(stderr, "available datasets:\n");
    for (const fastft::ZooEntry& e : fastft::AllZooEntries()) {
      std::fprintf(stderr, "  %s\n", e.name.c_str());
    }
    return 1;
  }
  fastft::Dataset dataset = std::move(loaded).ValueOrDie();
  std::printf("dataset %-18s task=%s rows=%d features=%d\n",
              dataset.name.c_str(), fastft::TaskTypeCode(dataset.task),
              dataset.NumRows(), dataset.NumFeatures());

  // Default configuration: a short cold start followed by predictor-driven
  // exploration with novelty-shaped rewards.
  fastft::EngineConfig config;
  config.episodes = 10;
  config.steps_per_episode = 8;
  config.cold_start_episodes = 3;
  config.seed = 7;
  // Fan downstream evaluation out over every hardware thread. Scores are
  // bit-identical to a serial run (num_threads = 1); only the wall clock
  // changes.
  config.num_threads = 0;

  fastft::FastFtEngine engine(config);
  // Run returns Result<EngineResult>: invalid datasets or configs come back
  // as a Status instead of aborting the process.
  fastft::Result<fastft::EngineResult> run = engine.Run(dataset);
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  fastft::EngineResult result = std::move(run).ValueOrDie();

  std::printf("\nbase score  : %.4f\n", result.base_score);
  std::printf("best score  : %.4f  (+%.4f)\n", result.best_score,
              result.best_score - result.base_score);
  std::printf("downstream evaluations : %lld\n",
              static_cast<long long>(result.downstream_evaluations));
  std::printf("predictor estimations  : %lld\n",
              static_cast<long long>(result.predictor_estimations));
  std::printf("time: evaluation=%.2fs estimation=%.2fs optimization=%.2fs\n",
              1e-9 * result.times.evaluation_ns,
              1e-9 * result.times.estimation_ns,
              1e-9 * result.times.optimization_ns);

  std::printf("\nbest transformed feature set (%d columns):\n",
              result.best_dataset.NumFeatures());
  int shown = 0;
  for (int c = dataset.NumFeatures();
       c < result.best_dataset.NumFeatures() && shown < 10; ++c, ++shown) {
    std::printf("  %s\n", result.best_dataset.features.Name(c).c_str());
  }
  if (result.best_dataset.NumFeatures() == dataset.NumFeatures()) {
    std::printf("  (the original features were already optimal this run)\n");
  }
  return 0;
}
