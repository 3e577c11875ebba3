// Table I: overall comparison of FastFT against the ten baselines on the
// dataset zoo (synthetic counterparts of the paper's Table I datasets).
//
// Reported metric follows the paper: F1 for classification, 1-RAE for
// regression, AUC for detection. FastFT runs over several seeds and reports
// mean ± std; the final rows give paired t-statistics and (normal-
// approximated) one-sided p-values of FastFT vs. each baseline.

#include <map>

#include "bench_util.h"

namespace fastft {
namespace {

using bench::DefaultBaselineConfig;
using bench::DefaultEngineConfig;

int main_impl() {
  bench::PrintTitle(
      "Table I — overall performance (F1 / 1-RAE / AUC per task)");

  const std::vector<std::string>& methods = BaselineNames();
  const int fastft_seeds = bench::FullMode() ? 5 : 3;

  std::map<std::string, std::vector<double>> scores;  // method → per-dataset
  std::vector<double> fastft_means;

  std::printf("%-20s %-8s %5s", "Dataset", "Task", "Base");
  for (const std::string& m : methods) std::printf(" %7s", m.c_str());
  std::printf("  %-15s\n", "FASTFT (±std)");

  for (const ZooEntry& entry : AllZooEntries()) {
    Dataset dataset = GenerateZooDataset(entry);
    std::printf("%-20s %-8s", entry.name.c_str(), TaskTypeCode(entry.task));

    double base = 0.0;
    bool base_done = false;
    for (const std::string& m : methods) {
      BaselineResult r =
          RunBaseline(m, DefaultBaselineConfig(101), dataset).ValueOrDie();
      if (!base_done) {
        base = r.base_score;
        std::printf(" %5.3f", base);
        base_done = true;
      }
      scores[m].push_back(r.score);
      std::printf(" %7.3f", r.score);
      std::fflush(stdout);
    }

    std::vector<double> runs;
    for (int s = 0; s < fastft_seeds; ++s) {
      EngineConfig cfg = DefaultEngineConfig(2024 + 37 * s);
      cfg.episodes = bench::FullMode() ? 18 : 13;  // the paper's FastFT runs
                                                   // a much longer schedule
      runs.push_back(FastFtEngine(cfg).Run(dataset).ValueOrDie().best_score);
    }
    double mean = Mean(runs);
    fastft_means.push_back(mean);
    std::printf("  %5.3f ±%.3f\n", mean, bench::StdDev(runs));
    std::fflush(stdout);
  }

  std::printf("\n%-20s %-8s %5s", "T-stat", "-", "-");
  std::map<std::string, double> tstats;
  for (const std::string& m : methods) {
    tstats[m] = bench::PairedTStat(fastft_means, scores[m]);
    std::printf(" %7.3f", tstats[m]);
  }
  std::printf("\n%-20s %-8s %5s", "P-value", "-", "-");
  for (const std::string& m : methods) {
    std::printf(" %7.1e", bench::OneSidedP(tstats[m]));
  }
  std::printf("\n");

  // Shape checks: FastFT wins on average against every baseline, and the
  // t-statistics are positive (the paper reports all-positive t-stats with
  // p << 0.05).
  int wins = 0;
  for (const std::string& m : methods) wins += (tstats[m] > 0.0);
  bench::ShapeCheck(wins == static_cast<int>(methods.size()),
                    "FastFT mean beats every baseline (all t-stats > 0)");
  int significant = 0;
  for (const std::string& m : methods) {
    significant += (bench::OneSidedP(tstats[m]) < 0.05);
  }
  bench::ShapeCheck(significant >= static_cast<int>(methods.size()) - 2,
                    "FastFT superiority significant (p < 0.05) for nearly "
                    "all baselines");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
