#include "baselines/baseline.h"

#include <utility>

#include "baselines/methods.h"
#include "common/timer.h"

namespace fastft {
namespace {

EvaluatorConfig MethodEvaluator(const BaselineConfig& config) {
  EvaluatorConfig ec = config.evaluator;
  ec.seed = DeriveSeed(config.seed, 1);
  return ec;
}

struct Method {
  const char* name;
  BaselineResult (*run)(const BaselineConfig&, const Dataset&);
};

// The paper's Table I column order.
constexpr Method kMethods[] = {
    {"RFG", RunRfg},     {"ERG", RunErg},       {"LDA", RunLda},
    {"AFT", RunAft},     {"NFS", RunNfs},       {"TTG", RunTtg},
    {"DIFER", RunDifer}, {"OpenFE", RunOpenFe}, {"CAAFE", RunCaafe},
    {"GRFG", RunGrfg},
};

}  // namespace

MethodRun::MethodRun(const BaselineConfig& config, const Dataset& dataset)
    : rng(config.seed), evaluator(MethodEvaluator(config)) {
  result.base_score = evaluator.Evaluate(dataset);
  result.score = result.base_score;
  result.best_dataset = dataset;
}

BaselineResult MethodRun::Finish() {
  result.downstream_evaluations = evaluator.evaluation_count();
  return std::move(result);
}

const std::vector<std::string>& BaselineNames() {
  static const std::vector<std::string>& names = *[] {
    auto* out = new std::vector<std::string>;
    for (const Method& method : kMethods) out->push_back(method.name);
    return out;
  }();
  return names;
}

Result<BaselineResult> RunBaseline(const std::string& name,
                                   const BaselineConfig& config,
                                   const Dataset& dataset) {
  for (const Method& method : kMethods) {
    if (name != method.name) continue;
    WallTimer timer;
    BaselineResult result = method.run(config, dataset);
    result.runtime_seconds = timer.Seconds();
    return result;
  }
  std::string valid;
  for (const std::string& known : BaselineNames()) {
    valid += (valid.empty() ? "" : ", ") + known;
  }
  return Status::InvalidArgument("unknown baseline \"" + name +
                                 "\"; valid names: " + valid);
}

}  // namespace fastft
