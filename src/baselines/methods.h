// The ten methods behind RunBaseline (baselines/baseline.h), one free
// function each, and the start that nine of them share. Private to
// src/baselines/: callers go through RunBaseline.

#pragma once

#include "baselines/baseline.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "ml/evaluator.h"

namespace fastft {

/// The start of every method that scores through its own Evaluator: the
/// run's Rng (seeded config.seed), an Evaluator seeded
/// DeriveSeed(config.seed, 1), and a result that holds the untouched
/// dataset at its base score.
struct MethodRun {
  MethodRun(const BaselineConfig& config, const Dataset& dataset);

  /// Hands the result over with the evaluator's downstream-evaluation count.
  BaselineResult Finish();

  Rng rng;
  Evaluator evaluator;
  BaselineResult result;
};

BaselineResult RunRfg(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunErg(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunLda(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunAft(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunNfs(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunTtg(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunDifer(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunOpenFe(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunCaafe(const BaselineConfig& config, const Dataset& dataset);
BaselineResult RunGrfg(const BaselineConfig& config, const Dataset& dataset);

}  // namespace fastft
