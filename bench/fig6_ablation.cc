// Fig. 6: ablation of the three technical components on four datasets.
//
// Variants: full FASTFT, -PP (no Performance Predictor), -RCT (uniform
// instead of prioritized replay), -NE (no Novelty Estimator). The paper's
// claim: the full model is best or tied; each ablation costs performance
// (-PP mainly costs time, see Table II).

#include "bench_util.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 6 — component ablation study");

  const char* datasets[] = {"Alzheimers", "SVMGuide3", "OpenML_589",
                            "Mammography"};
  struct Variant {
    const char* name;
    bool pp, ne, rct;
  };
  const Variant variants[] = {
      {"FASTFT", true, true, true},
      {"FASTFT-PP", false, true, true},
      {"FASTFT-RCT", true, true, false},
      {"FASTFT-NE", true, false, true},
  };
  const int seeds = bench::FullMode() ? 4 : 3;

  std::printf("%-14s", "");
  for (const Variant& v : variants) std::printf(" %11s", v.name);
  std::printf("\n");

  int full_best = 0;
  for (const char* name : datasets) {
    Dataset dataset = LoadZooDataset(name).ValueOrDie();
    std::printf("%-14s", name);
    double scores[4] = {0, 0, 0, 0};
    for (int v = 0; v < 4; ++v) {
      std::vector<double> runs;
      for (int s = 0; s < seeds; ++s) {
        EngineConfig cfg = bench::DefaultEngineConfig(500 + 11 * s);
        // Long warm phase: the components under ablation only act after
        // the cold start, which is identical across variants per seed.
        cfg.episodes = 16;
        cfg.cold_start_episodes = 2;
        cfg.use_performance_predictor = variants[v].pp;
        cfg.use_novelty = variants[v].ne;
        cfg.prioritized_replay = variants[v].rct;
        runs.push_back(FastFtEngine(cfg).Run(dataset).ValueOrDie().best_score);
      }
      scores[v] = Mean(runs);
      std::printf(" %11.3f", scores[v]);
      std::fflush(stdout);
    }
    std::printf("\n");
    bool best =
        scores[0] >= scores[2] - 0.01 && scores[0] >= scores[3] - 0.01;
    full_best += best;
  }

  bench::ShapeCheck(full_best >= 3,
                    "full FASTFT matches or beats the -RCT and -NE ablations "
                    "on nearly every dataset");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
