// Fig. 10: runtime scalability vs. dataset size for FASTFT, OpenFE, and the
// CAAFE simulator.
//
// The paper's claims: OpenFE's runtime grows fastest (it evaluates each
// step on the full downstream task); CAAFE pays a large constant LLM cost
// that amortizes slowly; FastFT grows the slowest thanks to the predictor.

#include "bench_util.h"
#include "common/timer.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 10 — runtime vs dataset size (seconds)");

  struct Size {
    int samples;
    int features;
  };
  const Size sizes[] = {{200, 10}, {400, 14}, {800, 20}, {1400, 26}};

  std::printf("%-16s %10s %10s %10s\n", "size (SxF)", "FASTFT", "OpenFE",
              "CAAFE");
  std::vector<double> fastft_t, openfe_t, caafe_t;
  for (const Size& size : sizes) {
    SyntheticSpec spec;
    spec.samples = size.samples;
    spec.features = size.features;
    spec.seed = 1010;
    Dataset dataset = MakeClassification(spec);

    EngineConfig cfg = bench::DefaultEngineConfig(1010);
    cfg.evaluator.folds = 5;
    cfg.evaluator.forest_trees = 12;
    WallTimer t0;
    FastFtEngine(cfg).Run(dataset).ValueOrDie();
    fastft_t.push_back(t0.Seconds());

    BaselineConfig bc = bench::DefaultBaselineConfig(1010);
    bc.evaluator.folds = 5;
    bc.evaluator.forest_trees = 12;
    // CAAFE's per-call cost model: a large constant latency.
    bc.caafe_llm_latency = 1.2;
    openfe_t.push_back(
        RunBaseline("OpenFE", bc, dataset).ValueOrDie().runtime_seconds);
    caafe_t.push_back(
        RunBaseline("CAAFE", bc, dataset).ValueOrDie().runtime_seconds);

    std::printf("%7dx%-8d %10.2f %10.2f %10.2f\n", size.samples,
                size.features, fastft_t.back(), openfe_t.back(),
                caafe_t.back());
    std::fflush(stdout);
  }

  double fastft_growth = fastft_t.back() / std::max(fastft_t.front(), 1e-9);
  double openfe_growth = openfe_t.back() / std::max(openfe_t.front(), 1e-9);
  double caafe_growth = caafe_t.back() / std::max(caafe_t.front(), 1e-9);
  std::printf("\ngrowth factor largest/smallest: FASTFT %.1fx, OpenFE %.1fx, "
              "CAAFE %.1fx\n",
              fastft_growth, openfe_growth, caafe_growth);

  bench::TimingCheck(fastft_growth < openfe_growth,
                     "FastFT's runtime grows slower with size than OpenFE's");
  bench::TimingCheck(caafe_growth < openfe_growth,
                     "CAAFE's constant LLM latency amortizes: slower growth "
                     "than OpenFE, but a high floor");
  bench::TimingCheck(caafe_t.front() > fastft_t.front(),
                     "on small datasets CAAFE is the slowest (LLM overhead "
                     "dominates)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
