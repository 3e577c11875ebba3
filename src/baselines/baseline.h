// The feature-transformation baselines of Table I, run by name.
//
// Each baseline consumes a dataset and produces its best transformed dataset
// plus bookkeeping (runtime, downstream-evaluation count) used by the
// runtime experiments (Fig. 9/10).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "ml/evaluator.h"

namespace fastft {

/// Cap on the transformed feature count of the methods that grow a table.
inline constexpr int kFeatureBudget = 48;

struct BaselineConfig {
  EvaluatorConfig evaluator;
  /// Iteration budget for iterative methods.
  int iterations = 24;
  /// Simulated per-call LLM latency for CAAFE (seconds).
  double caafe_llm_latency = 0.25;
  uint64_t seed = 7;
};

struct BaselineResult {
  double base_score = 0.0;
  double score = 0.0;
  Dataset best_dataset;
  double runtime_seconds = 0.0;
  int64_t downstream_evaluations = 0;
};

/// Names accepted by RunBaseline, in the paper's Table I column order:
/// RFG, ERG, LDA, AFT, NFS, TTG, DIFER, OpenFE, CAAFE, GRFG.
const std::vector<std::string>& BaselineNames();

/// Runs the named method on `dataset`; deterministic given config.seed.
/// runtime_seconds is the wall time of the whole method. An unknown name
/// is InvalidArgument, with the valid names in the message.
Result<BaselineResult> RunBaseline(const std::string& name,
                                   const BaselineConfig& config,
                                   const Dataset& dataset);

}  // namespace fastft
