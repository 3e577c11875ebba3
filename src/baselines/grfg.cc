// GRFG (Table I baseline 10): group-wise reinforcement feature generation.
//
// The paper's closest prior work: the same cascading-agent, group-wise
// crossing machinery as FastFT, but *every* step is evaluated with the
// downstream task, there is no novelty reward, and replay is uniform. This
// wrapper configures the FastFT engine accordingly.

#include "baselines/methods.h"

#include <algorithm>

#include "core/engine.h"

namespace fastft {

BaselineResult RunGrfg(const BaselineConfig& config, const Dataset& dataset) {
  EngineConfig cfg;
  cfg.use_performance_predictor = false;  // downstream evaluation every step
  cfg.use_novelty = false;
  cfg.prioritized_replay = false;
  cfg.episodes = std::max(3, config.iterations / 6);
  cfg.steps_per_episode = 6;
  cfg.cold_start_episodes = 1;
  cfg.evaluator = config.evaluator;
  cfg.feature_space.max_features =
      std::max(kFeatureBudget, dataset.NumFeatures() + 8);
  cfg.seed = config.seed;

  FastFtEngine engine(cfg);
  // The baseline harness only feeds datasets that already passed validation,
  // so a failure here is a harness bug worth aborting on.
  EngineResult er = engine.Run(dataset).ValueOrDie();

  BaselineResult result;
  result.base_score = er.base_score;
  result.score = er.best_score;
  result.best_dataset = std::move(er.best_dataset);
  result.downstream_evaluations = er.downstream_evaluations;
  return result;
}

}  // namespace fastft
