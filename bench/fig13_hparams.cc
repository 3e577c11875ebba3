// Fig. 13: hyperparameter sensitivity — novelty reward weights (ε_s, ε_e),
// decay steps M, and memory size S.
//
// The paper's claims: performance is stable across reasonable settings, and
// the small memory (S = 16) is as good as or better than large buffers
// (critical memories stay fresh).

#include "bench_util.h"

namespace fastft {
namespace {

double RunConfig(const Dataset& dataset, const EngineConfig& cfg) {
  return FastFtEngine(cfg).Run(dataset).ValueOrDie().best_score;
}

int main_impl() {
  bench::PrintTitle("Fig. 13 — hyperparameter study");

  const char* names[] = {"Alzheimers", "Mammography"};
  std::vector<Dataset> datasets;
  for (const char* name : names) {
    datasets.push_back(LoadZooDataset(name).ValueOrDie());
  }

  // (a) Novelty weight schedule (ε_s → ε_e).
  struct Weights {
    double start, end;
  };
  const Weights weight_sweep[] = {
      {0.05, 0.005}, {0.10, 0.005}, {0.20, 0.01}, {0.40, 0.02}};
  std::printf("(a) novelty weight (ε_s → ε_e)\n%-14s", "");
  for (const Weights& w : weight_sweep) {
    std::printf("   %.2f→%.3f", w.start, w.end);
  }
  std::printf("\n");
  double weight_spread = 0.0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    std::printf("%-14s", names[d]);
    double lo = 1e9, hi = -1e9;
    for (const Weights& w : weight_sweep) {
      EngineConfig cfg = bench::DefaultEngineConfig(1313);
      cfg.novelty_weight_start = w.start;
      cfg.novelty_weight_end = w.end;
      double s = RunConfig(datasets[d], cfg);
      std::printf("   %10.3f", s);
      std::fflush(stdout);
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::printf("\n");
    weight_spread = std::max(weight_spread, hi - lo);
  }

  // (b) Decay steps M.
  const int decay_sweep[] = {100, 500, 1000, 4000};
  std::printf("\n(b) novelty decay steps M\n%-14s", "");
  for (int m : decay_sweep) std::printf(" %10d", m);
  std::printf("\n");
  double decay_spread = 0.0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    std::printf("%-14s", names[d]);
    double lo = 1e9, hi = -1e9;
    for (int m : decay_sweep) {
      EngineConfig cfg = bench::DefaultEngineConfig(1313);
      cfg.novelty_decay_steps = m;
      double s = RunConfig(datasets[d], cfg);
      std::printf(" %10.3f", s);
      std::fflush(stdout);
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::printf("\n");
    decay_spread = std::max(decay_spread, hi - lo);
  }

  // (c) Memory size S.
  const int memory_sweep[] = {8, 16, 32, 64};
  std::printf("\n(c) memory size S\n%-14s", "");
  for (int s : memory_sweep) std::printf(" %10d", s);
  std::printf("\n");
  double small_mean = 0.0, large_mean = 0.0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    std::printf("%-14s", names[d]);
    for (int s : memory_sweep) {
      EngineConfig cfg = bench::DefaultEngineConfig(1313);
      cfg.memory_size = s;
      double score = RunConfig(datasets[d], cfg);
      std::printf(" %10.3f", score);
      std::fflush(stdout);
      if (s <= 16) small_mean += score;
      if (s >= 32) large_mean += score;
    }
    std::printf("\n");
  }
  small_mean /= 2.0 * datasets.size();
  large_mean /= 2.0 * datasets.size();

  bench::ShapeCheck(weight_spread < 0.08 && decay_spread < 0.08,
                    "performance is stable across novelty-weight and decay "
                    "settings (paper: flat curves)");
  bench::ShapeCheck(small_mean >= large_mean - 0.02,
                    "small memories (S<=16) are as good as large ones "
                    "(paper: no benefit from arbitrarily large S)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
