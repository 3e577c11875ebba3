// Table II: per-episode time breakdown of FastFT vs FastFT^-PP on four
// datasets of increasing size.
//
// The paper's claim: the Evaluation row dominates the -PP variant, and the
// Performance Predictor removes ~80% of it, cutting 60-82% of overall
// runtime; the saving grows with dataset size.

#include "bench_util.h"

namespace fastft {
namespace {

struct Breakdown {
  double optimization;
  double estimation;
  double evaluation;
  double overall;
};

Breakdown RunVariant(const Dataset& dataset, bool use_predictor,
                     int episodes) {
  EngineConfig cfg = bench::DefaultEngineConfig(404);
  cfg.episodes = episodes;
  cfg.cold_start_episodes = 2;
  cfg.use_performance_predictor = use_predictor;
  // Evaluation configuration tilted toward the paper's regime: k-fold with
  // a real forest, so downstream evaluation is the dominant cost.
  cfg.evaluator.folds = 5;
  cfg.evaluator.forest_trees = 16;
  FastFtEngine engine(cfg);
  EngineResult r = engine.Run(dataset).ValueOrDie();
  Breakdown b;
  b.optimization = 1e-9 * r.times.optimization_ns / episodes;
  b.estimation = 1e-9 * r.times.estimation_ns / episodes;
  b.evaluation = 1e-9 * r.times.evaluation_ns / episodes;
  b.overall = b.optimization + b.estimation + b.evaluation;
  return b;
}

int main_impl() {
  bench::PrintTitle(
      "Table II — per-episode runtime breakdown, FastFT vs FastFT^-PP "
      "(seconds)");

  struct Spec {
    const char* name;
    int samples;  // override to grow the paper's size ordering
  };
  // Sizes preserve the paper's ordering (SVMGuide3 < Wine White < Cardio
  // < Amazon) and are large enough that a downstream evaluation costs far
  // more than a predictor pass — the regime Table II measures.
  const Spec specs[] = {
      {"SVMGuide3", 400},
      {"Wine Quality White", 850},
      {"Cardiovascular", 1000},
      {"Amazon Employee", 1500},
  };
  const int episodes = 20;

  bool all_eval_dominant = true;
  bool all_saving = true;
  std::vector<double> savings;
  for (const Spec& spec : specs) {
    Dataset dataset = LoadZooDataset(spec.name, spec.samples).ValueOrDie();
    long size = static_cast<long>(dataset.NumRows()) * dataset.NumFeatures();
    std::printf("\nDataset %s (size %ld = %d x %d)\n", spec.name, size,
                dataset.NumRows(), dataset.NumFeatures());
    Breakdown no_pp = RunVariant(dataset, /*use_predictor=*/false, episodes);
    Breakdown with_pp = RunVariant(dataset, /*use_predictor=*/true, episodes);

    std::printf("  %-14s %10s %10s\n", "Stage", "FASTFT^-PP", "FASTFT");
    std::printf("  %-14s %10.2f %10.2f\n", "Optimization", no_pp.optimization,
                with_pp.optimization);
    std::printf("  %-14s %10s %10.2f\n", "Estimation", "-",
                with_pp.estimation);
    std::printf("  %-14s %10.2f %10.2f  (-%.1f%%)\n", "Evaluation",
                no_pp.evaluation, with_pp.evaluation,
                100.0 * (1.0 - with_pp.evaluation /
                                   std::max(no_pp.evaluation, 1e-9)));
    double saving = 1.0 - with_pp.overall / std::max(no_pp.overall, 1e-9);
    std::printf("  %-14s %10.2f %10.2f  (-%.1f%%)\n", "Overall",
                no_pp.overall, with_pp.overall, 100.0 * saving);

    all_eval_dominant &= no_pp.evaluation > no_pp.optimization;
    all_saving &= saving > 0.10;
    savings.push_back(saving);
  }

  std::printf("\n");
  bench::TimingCheck(all_eval_dominant,
                     "evaluation dominates FASTFT^-PP runtime on every "
                     "dataset (paper: up to ~95%)");
  bench::TimingCheck(all_saving && savings.back() > 0.5,
                     "the predictor saves runtime everywhere, over half on "
                     "the largest dataset (paper: 61-81%)");
  bench::TimingCheck(savings.back() > savings.front(),
                     "the saving grows with dataset size (paper: larger "
                     "datasets benefit more)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
