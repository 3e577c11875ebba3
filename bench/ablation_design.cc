// Design-choice ablations (beyond the paper's figures).
//
// DESIGN.md calls out three load-bearing implementation choices; this
// harness measures each:
//   (a) MI-based clustering for group-wise crossing, vs a random partition
//       and vs singleton clusters (no group-wise crossing at all) — quality
//       and the MI runs' whole Table II optimization bucket per step;
//   (b) the feature budget (MI top-k replacement) — quality vs column cap;
//   (c) the per-step crossing cap (pair sampling) — quality vs cap.

#include "bench_util.h"

namespace fastft {
namespace {

double RunScore(const Dataset& dataset, const EngineConfig& cfg) {
  return FastFtEngine(cfg).Run(dataset).ValueOrDie().best_score;
}

int main_impl() {
  bench::PrintTitle("Design ablations — clustering mode, feature budget, "
                    "crossing cap");

  const char* names[] = {"SVMGuide3", "OpenML_589"};
  const int seeds = 2;

  // (a) Clustering mode.
  std::printf("(a) clustering mode for group-wise crossing\n");
  std::printf("%-12s %12s %12s %12s %14s\n", "", "MI", "random",
              "singleton", "MI opt ms/step");
  double mi_total = 0, random_total = 0, singleton_total = 0;
  for (const char* name : names) {
    Dataset dataset = LoadZooDataset(name).ValueOrDie();
    double scores[3] = {0, 0, 0};
    double mi_opt_ms = 0;
    const ClusterMode modes[] = {ClusterMode::kMiHierarchical,
                                 ClusterMode::kRandom,
                                 ClusterMode::kSingleton};
    for (int m = 0; m < 3; ++m) {
      for (int s = 0; s < seeds; ++s) {
        EngineConfig cfg = bench::DefaultEngineConfig(1600 + 7 * s);
        cfg.clustering.mode = modes[m];
        EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
        scores[m] += r.best_score / seeds;
        if (m == 0) {
          mi_opt_ms +=
              1e-6 * r.times.optimization_ns / (r.total_steps * seeds);
        }
      }
    }
    std::printf("%-12s %12.3f %12.3f %12.3f %14.1f\n", name, scores[0],
                scores[1], scores[2], mi_opt_ms);
    std::fflush(stdout);
    mi_total += scores[0];
    random_total += scores[1];
    singleton_total += scores[2];
  }
  bench::ShapeCheck(mi_total >= random_total - 0.03 &&
                        mi_total >= singleton_total - 0.03,
                    "MI clustering matches or beats random/singleton "
                    "grouping (GRFG's cluster-wise premise)");

  // (b) Feature budget.
  std::printf("\n(b) feature budget (MI top-k replacement)\n");
  const int budgets[] = {24, 32, 48, 96};
  std::printf("%-12s", "");
  for (int b : budgets) std::printf(" %9d", b);
  std::printf("\n");
  for (const char* name : names) {
    Dataset dataset = LoadZooDataset(name).ValueOrDie();
    std::printf("%-12s", name);
    for (int b : budgets) {
      EngineConfig cfg = bench::DefaultEngineConfig(1601);
      cfg.feature_space.max_features = b;
      std::printf(" %9.3f", RunScore(dataset, cfg));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("  (flat rows = the MI budget successfully prunes noise at "
              "small caps)\n");

  // (c) Per-step crossing cap.
  std::printf("\n(c) per-step crossing cap (pair sampling)\n");
  const int caps[] = {4, 8, 12, 24};
  std::printf("%-12s", "");
  for (int c : caps) std::printf(" %9d", c);
  std::printf("\n");
  for (const char* name : names) {
    Dataset dataset = LoadZooDataset(name).ValueOrDie();
    std::printf("%-12s", name);
    for (int c : caps) {
      EngineConfig cfg = bench::DefaultEngineConfig(1602);
      cfg.feature_space.max_new_per_step = c;
      std::printf(" %9.3f", RunScore(dataset, cfg));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("  (the default cap of 12 sits on the plateau)\n");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
