// Fig. 7: the RL framework ablation — Actor-Critic vs DQN / DDQN /
// DuelingDQN / DuelingDDQN, shown as best-so-far convergence curves.
//
// The paper's claim: Actor-Critic consistently ends highest and converges
// faster than the value-based cascades.

#include "bench_util.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 7 — reinforcement learning framework comparison");

  Dataset dataset = LoadZooDataset("Pima Indian").ValueOrDie();
  const RlFramework frameworks[] = {
      RlFramework::kActorCritic, RlFramework::kDqn, RlFramework::kDoubleDqn,
      RlFramework::kDuelingDqn, RlFramework::kDuelingDoubleDqn};
  const int episodes = bench::FullMode() ? 16 : 12;
  const int seeds = 2;

  std::printf("best-so-far score after each episode (dataset: %s)\n\n",
              dataset.name.c_str());
  std::printf("%-12s", "episode");
  for (int e = 1; e <= episodes; ++e) std::printf(" %5d", e);
  std::printf("\n");

  double final_scores[5] = {0, 0, 0, 0, 0};
  for (int f = 0; f < 5; ++f) {
    std::vector<double> curve(episodes, 0.0);
    for (int s = 0; s < seeds; ++s) {
      EngineConfig cfg = bench::DefaultEngineConfig(606 + 13 * s);
      cfg.episodes = episodes;
      cfg.framework = frameworks[f];
      EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
      for (int e = 0; e < episodes; ++e) curve[e] += r.episode_best[e];
    }
    std::printf("%-12s", RlFrameworkName(frameworks[f]));
    for (int e = 0; e < episodes; ++e) {
      curve[e] /= seeds;
      std::printf(" %5.3f", curve[e]);
    }
    std::printf("\n");
    std::fflush(stdout);
    final_scores[f] = curve[episodes - 1];
  }

  bool ac_best = true;
  for (int f = 1; f < 5; ++f) {
    ac_best &= final_scores[0] >= final_scores[f] - 0.015;
  }
  bench::ShapeCheck(ac_best,
                    "Actor-Critic ends at (or within noise of) the best "
                    "final score among all frameworks");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
