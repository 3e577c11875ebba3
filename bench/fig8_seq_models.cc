// Fig. 8: sequential-model ablation of the evaluation components.
//
// FASTFT (LSTM) vs FASTFT^R (vanilla RNN) vs FASTFT^T (Transformer). The
// paper's claim: the three reach comparable downstream scores, but the LSTM
// variant trains/infers markedly faster than the Transformer — the sequence
// structure does not need attention.

#include "bench_util.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 8 — sequence-model backbone comparison");

  const char* datasets[] = {"SVMGuide3", "OpenML_620"};
  const nn::Backbone backbones[] = {nn::Backbone::kLstm, nn::Backbone::kRnn,
                                    nn::Backbone::kTransformer};
  const char* variant_names[] = {"FASTFT (LSTM)", "FASTFT^R (RNN)",
                                 "FASTFT^T (Transformer)"};

  double component_time[3] = {0, 0, 0};
  double scores[3] = {0, 0, 0};
  std::printf("%-24s %10s %16s\n", "variant", "score",
              "component time(s)");
  for (const char* name : datasets) {
    Dataset dataset = LoadZooDataset(name).ValueOrDie();
    std::printf("-- %s --\n", name);
    for (int b = 0; b < 3; ++b) {
      EngineConfig cfg = bench::DefaultEngineConfig(707);
      cfg.backbone = backbones[b];
      EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
      // Component cost = estimation (forward passes) + the share of
      // optimization spent training the sequence models; optimization also
      // contains agent updates, identical across variants, so the
      // difference is attributable to the backbone.
      double t = 1e-9 * (r.times.estimation_ns + r.times.optimization_ns);
      std::printf("%-24s %10.3f %16.2f\n", variant_names[b], r.best_score, t);
      std::fflush(stdout);
      scores[b] += r.best_score / 2.0;
      component_time[b] += t / 2.0;
    }
  }

  std::printf("\nmean over datasets:\n");
  for (int b = 0; b < 3; ++b) {
    std::printf("%-24s %10.3f %16.2f\n", variant_names[b], scores[b],
                component_time[b]);
  }

  double spread = 0.0;
  for (int b = 1; b < 3; ++b) {
    spread = std::max(spread, std::abs(scores[b] - scores[0]));
  }
  bench::ShapeCheck(spread < 0.08,
                    "LSTM / RNN / Transformer reach comparable scores "
                    "(paper: near-identical bars)");
  bench::TimingCheck(component_time[0] < component_time[2],
                     "the LSTM variant is faster than the Transformer variant "
                     "(paper: markedly lower runtime)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
