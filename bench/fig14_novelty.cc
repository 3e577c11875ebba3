// Fig. 14: the impact of the Novelty Reward — FASTFT vs FASTFT^-NE in terms
// of (a) average novelty distance of generated feature sets, (b) cumulative
// count of unencountered feature combinations, and (c) downstream score.
//
// Novelty distance of a step = minimum cosine distance between the current
// transformation-sequence embedding and all previously collected embeddings
// (the paper's metric). The claims: the novelty reward raises both the
// average distance and the unseen count, and correlates with better scores.

#include "bench_util.h"

namespace fastft {
namespace {

struct NoveltySummary {
  double mean_distance = 0.0;
  int unseen_final = 0;
  double best_score = 0.0;
  std::vector<double> distance_curve;  // running mean per step
  std::vector<int> unseen_curve;
};

NoveltySummary RunVariant(const Dataset& dataset, bool use_novelty,
                          uint64_t seed) {
  EngineConfig cfg = bench::DefaultEngineConfig(seed);
  cfg.use_novelty = use_novelty;
  cfg.collect_novelty_metrics = true;
  // A longer horizon and a stronger early bonus: the novelty reward shifts
  // the policy gradually, so its exploration effect needs steps to show.
  cfg.episodes = 16;
  cfg.cold_start_episodes = 2;
  cfg.novelty_weight_start = 0.3;
  EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
  NoveltySummary out;
  double acc = 0.0;
  int n = 0;
  for (const StepTrace& t : r.trace) {
    acc += t.novelty_distance;
    ++n;
    out.distance_curve.push_back(acc / n);
    out.unseen_curve.push_back(t.unseen_cumulative);
  }
  out.mean_distance = n > 0 ? acc / n : 0.0;
  out.unseen_final = out.unseen_curve.empty() ? 0 : out.unseen_curve.back();
  out.best_score = r.best_score;
  return out;
}

int main_impl() {
  bench::PrintTitle("Fig. 14 — novelty reward study (Wine Quality Red)");

  Dataset dataset = LoadZooDataset("Wine Quality Red").ValueOrDie();
  // Average the curves over seeds.
  NoveltySummary with, without;
  const uint64_t seeds[] = {1414, 5151, 2718};
  int merged = 0;
  for (uint64_t seed : seeds) {
    NoveltySummary w = RunVariant(dataset, /*use_novelty=*/true, seed);
    NoveltySummary wo = RunVariant(dataset, /*use_novelty=*/false, seed);
    ++merged;
    auto merge = [merged](NoveltySummary* acc, const NoveltySummary& s) {
      if (merged == 1) {
        *acc = s;
        return;
      }
      const double w_new = 1.0 / merged;
      for (size_t i = 0; i < acc->distance_curve.size() &&
                         i < s.distance_curve.size();
           ++i) {
        acc->distance_curve[i] += w_new * (s.distance_curve[i] -
                                           acc->distance_curve[i]);
        acc->unseen_curve[i] += static_cast<int>(
            w_new * (s.unseen_curve[i] - acc->unseen_curve[i]));
      }
      acc->mean_distance += w_new * (s.mean_distance - acc->mean_distance);
      acc->unseen_final += static_cast<int>(
          w_new * (s.unseen_final - acc->unseen_final));
      acc->best_score += w_new * (s.best_score - acc->best_score);
    };
    merge(&with, w);
    merge(&without, wo);
  }

  std::printf("(a) running-mean novelty distance per step\n");
  std::printf("%8s %10s %10s\n", "step", "FASTFT", "FASTFT-NE");
  for (size_t i = 7; i < with.distance_curve.size(); i += 8) {
    std::printf("%8zu %10.4f %10.4f\n", i + 1, with.distance_curve[i],
                i < without.distance_curve.size() ? without.distance_curve[i]
                                                  : 0.0);
  }

  std::printf("\n(b) cumulative unencountered feature combinations\n");
  std::printf("%8s %10s %10s\n", "step", "FASTFT", "FASTFT-NE");
  for (size_t i = 7; i < with.unseen_curve.size(); i += 8) {
    std::printf("%8zu %10d %10d\n", i + 1, with.unseen_curve[i],
                i < without.unseen_curve.size() ? without.unseen_curve[i]
                                                : 0);
  }

  std::printf("\n(c) summary\n");
  std::printf("%-12s mean-novelty-distance %6.4f  unseen %4d  score %.3f\n",
              "FASTFT", with.mean_distance, with.unseen_final,
              with.best_score);
  std::printf("%-12s mean-novelty-distance %6.4f  unseen %4d  score %.3f\n",
              "FASTFT-NE", without.mean_distance, without.unseen_final,
              without.best_score);

  bench::ShapeCheck(with.mean_distance >= without.mean_distance,
                    "the novelty reward raises the average novelty distance "
                    "of generated feature sets");
  bench::ShapeCheck(with.unseen_final >= without.unseen_final,
                    "the novelty reward discovers at least as many "
                    "unencountered feature combinations");
  bench::ShapeCheck(with.best_score >= without.best_score - 0.02,
                    "higher-novelty exploration does not cost downstream "
                    "performance (paper: it improves it)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
