// Fig. 11: spatial complexity of the Performance Predictor.
//
// (a) memory footprint (parameters + activations) vs. sequence length for
//     each backbone — the recurrent predictor grows slowly and linearly,
//     the transformer quadratically;
// (b) the trade-off: the small extra memory of the predictor buys a large
//     reduction in evaluation time.
//
// The paper measures GPU allocation; this repo runs on CPU, so exact byte
// accounting of the model's tensors substitutes for device memory
// (DESIGN.md §1) — the *curve shapes* are the reproduced object.

#include "bench_util.h"
#include "core/performance_predictor.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 11 — predictor memory vs sequence length");

  const nn::Backbone backbones[] = {nn::Backbone::kLstm, nn::Backbone::kRnn,
                                    nn::Backbone::kTransformer};
  const int lengths[] = {16, 32, 64, 128, 256, 512};

  std::printf("(a) parameters + activation bytes (KiB)\n");
  std::printf("%-14s", "length");
  for (int len : lengths) std::printf(" %9d", len);
  std::printf("\n");

  double lstm_ratio = 0.0, transformer_ratio = 0.0;
  for (nn::Backbone backbone : backbones) {
    PredictorConfig cfg;
    cfg.backbone = backbone;
    PerformancePredictor predictor(cfg);
    std::printf("%-14s", nn::BackboneName(backbone));
    std::vector<double> kib;
    for (int len : lengths) {
      double total = static_cast<double>(predictor.ParameterBytes() +
                                         predictor.ActivationBytes(len)) /
                     1024.0;
      kib.push_back(total);
      std::printf(" %9.1f", total);
    }
    std::printf("\n");
    double growth = kib.back() / kib.front();
    if (backbone == nn::Backbone::kLstm) lstm_ratio = growth;
    if (backbone == nn::Backbone::kTransformer) transformer_ratio = growth;
  }

  // (b) Memory/time trade-off: the predictor's bytes vs the evaluation time
  // it removes (from a short paired engine run).
  std::printf("\n(b) memory/time trade-off\n");
  Dataset dataset = LoadZooDataset("SVMGuide3").ValueOrDie();
  EngineConfig with = bench::DefaultEngineConfig(1111);
  with.evaluator.folds = 5;
  with.evaluator.forest_trees = 12;
  EngineConfig without = with;
  without.use_performance_predictor = false;
  EngineResult r_with = FastFtEngine(with).Run(dataset).ValueOrDie();
  EngineResult r_without = FastFtEngine(without).Run(dataset).ValueOrDie();

  PredictorConfig pc;
  PerformancePredictor predictor(pc);
  double extra_kib = static_cast<double>(predictor.ParameterBytes() +
                                         predictor.ActivationBytes(192)) /
                     1024.0;
  double saved = 1e-9 * r_without.times.evaluation_ns -
                 1e-9 * r_with.times.evaluation_ns;
  std::printf("  predictor memory: %.1f KiB\n", extra_kib);
  std::printf("  evaluation time saved: %.2f s (%.2f -> %.2f)\n", saved,
              1e-9 * r_without.times.evaluation_ns,
              1e-9 * r_with.times.evaluation_ns);

  bench::ShapeCheck(lstm_ratio < 0.6 * transformer_ratio,
                    "recurrent predictor memory grows much slower with "
                    "sequence length than attention-based memory");
  bench::TimingCheck(saved > 0.0 && extra_kib < 4096.0,
                     "kilobytes of predictor state buy seconds of evaluation "
                     "time (paper: slight GPU increase, large time cut)");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
