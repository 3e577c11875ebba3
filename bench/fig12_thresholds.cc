// Fig. 12: the α (performance-trigger) and β (novelty-trigger) threshold
// study on evaluation time and downstream score.
//
// Higher thresholds route more sequences to real downstream evaluation. The
// paper's claims: evaluation time falls sharply as α or β shrink; the score
// stays roughly flat — except at α = β = 0, where the agents never receive
// ground-truth feedback after the cold start and can degenerate.

#include "bench_util.h"

namespace fastft {
namespace {

struct Point {
  double value;
  double eval_time;
  double score;
  int64_t evals;
};

Point RunWith(const Dataset& dataset, double alpha, double beta,
              uint64_t seed) {
  EngineConfig cfg = bench::DefaultEngineConfig(seed);
  cfg.alpha_percentile = alpha;
  cfg.beta_percentile = beta;
  cfg.evaluator.folds = 5;
  cfg.evaluator.forest_trees = 12;
  EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
  return {0.0, 1e-9 * r.times.evaluation_ns, r.best_score,
          r.downstream_evaluations};
}

int main_impl() {
  bench::PrintTitle("Fig. 12 — α / β threshold study (SVMGuide3)");

  Dataset dataset = LoadZooDataset("SVMGuide3").ValueOrDie();
  const double sweep[] = {0, 5, 10, 15, 20};

  std::printf("(a) α sweep, β fixed at 5\n");
  std::printf("%6s %12s %8s %8s\n", "alpha", "eval time(s)", "evals",
              "score");
  std::vector<Point> alpha_points;
  for (double alpha : sweep) {
    Point p = RunWith(dataset, alpha, 5.0, 1212);
    p.value = alpha;
    alpha_points.push_back(p);
    std::printf("%6.0f %12.2f %8lld %8.3f\n", alpha, p.eval_time,
                static_cast<long long>(p.evals), p.score);
    std::fflush(stdout);
  }

  std::printf("\n(b) β sweep, α fixed at 10\n");
  std::printf("%6s %12s %8s %8s\n", "beta", "eval time(s)", "evals",
              "score");
  std::vector<Point> beta_points;
  for (double beta : sweep) {
    Point p = RunWith(dataset, 10.0, beta, 1212);
    p.value = beta;
    beta_points.push_back(p);
    std::printf("%6.0f %12.2f %8lld %8.3f\n", beta, p.eval_time,
                static_cast<long long>(p.evals), p.score);
    std::fflush(stdout);
  }

  bench::ShapeCheck(
      alpha_points.front().evals < alpha_points.back().evals,
      "larger α triggers more downstream evaluations (more time)");
  bench::ShapeCheck(
      beta_points.front().evals <= beta_points.back().evals,
      "larger β triggers more downstream evaluations (more time)");
  // Score stability away from 0: max spread among α >= 5 small.
  double lo = 1e9, hi = -1e9;
  for (size_t i = 1; i < alpha_points.size(); ++i) {
    lo = std::min(lo, alpha_points[i].score);
    hi = std::max(hi, alpha_points[i].score);
  }
  bench::ShapeCheck(hi - lo < 0.08,
                    "score fluctuates only mildly for α in [5, 20]");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
