// Fig. 9: downstream performance vs. total runtime for every method — the
// quality/efficiency scatter.
//
// The paper's claims: (1) FastFT reaches the best score; (2) it does so in
// roughly a fifth of FASTFT^-PP's time; (3) it is far faster than the
// iterative-feedback baselines at equal-or-better quality.

#include "bench_util.h"
#include "common/timer.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 9 — performance vs. time (scatter rows)");

  // Larger samples than the zoo default: at tiny scale the predictor's own
  // training cost masks the evaluation savings it buys (cf. Table II).
  struct Spec {
    const char* name;
    int samples;
  };
  const Spec datasets[] = {{"Pima Indian", 1200}, {"Wine Quality Red", 1200}};
  bool fastft_best_everywhere = true;
  bool pp_speedup_everywhere = true;

  for (const Spec& spec : datasets) {
    Dataset dataset = LoadZooDataset(spec.name, spec.samples).ValueOrDie();
    std::printf("\n-- %s (%d rows) --\n", spec.name, spec.samples);
    std::printf("%-12s %8s %10s %8s\n", "method", "score", "runtime(s)",
                "evals");

    double best_baseline = 0.0;
    for (const std::string& m : BaselineNames()) {
      BaselineResult r =
          RunBaseline(m, bench::DefaultBaselineConfig(909), dataset)
              .ValueOrDie();
      std::printf("%-12s %8.3f %10.2f %8lld\n", m.c_str(), r.score,
                  r.runtime_seconds,
                  static_cast<long long>(r.downstream_evaluations));
      std::fflush(stdout);
      best_baseline = std::max(best_baseline, r.score);
    }

    // FASTFT^-PP: identical schedule, every generating step evaluated.
    EngineConfig no_pp = bench::DefaultEngineConfig(909);
    no_pp.use_performance_predictor = false;
    no_pp.episodes = 18;
    no_pp.cold_start_episodes = 2;
    no_pp.evaluator.folds = 5;
    no_pp.evaluator.forest_trees = 16;
    WallTimer t1;
    EngineResult r_no_pp = FastFtEngine(no_pp).Run(dataset).ValueOrDie();
    double no_pp_time = t1.Seconds();
    std::printf("%-12s %8.3f %10.2f %8lld\n", "FASTFT-PP",
                r_no_pp.best_score, no_pp_time,
                static_cast<long long>(r_no_pp.downstream_evaluations));

    EngineConfig with_pp = no_pp;
    with_pp.use_performance_predictor = true;
    WallTimer t2;
    EngineResult r_pp = FastFtEngine(with_pp).Run(dataset).ValueOrDie();
    double pp_time = t2.Seconds();
    std::printf("%-12s %8.3f %10.2f %8lld\n", "FASTFT", r_pp.best_score,
                pp_time, static_cast<long long>(r_pp.downstream_evaluations));

    fastft_best_everywhere &= r_pp.best_score >= best_baseline - 0.02;
    pp_speedup_everywhere &= pp_time < 0.55 * no_pp_time;
    std::printf("FASTFT uses %.0f%% of FASTFT^-PP time at comparable score\n",
                100.0 * pp_time / std::max(no_pp_time, 1e-9));
  }

  std::printf("\n");
  bench::ShapeCheck(fastft_best_everywhere,
                    "FastFT's score is at (or within noise of) the top of "
                    "the scatter on every dataset");
  bench::TimingCheck(pp_speedup_everywhere,
                     "FastFT needs well under half of FASTFT^-PP's runtime "
                     "(paper: ~20%)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
