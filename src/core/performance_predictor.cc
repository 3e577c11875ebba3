#include "core/performance_predictor.h"

#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fastft {
namespace {

nn::SequenceModelConfig ToModelConfig(const PredictorConfig& config) {
  nn::SequenceModelConfig mc;
  mc.backbone = config.backbone;
  mc.vocab_size = config.vocab_size;
  mc.embed_dim = config.embed_dim;
  mc.hidden_dim = config.hidden_dim;
  mc.num_layers = config.num_layers;
  mc.head_dims = {16, 1};  // paper: 2 FC layers with widths 16 and 1
  mc.prefix_cache_bytes = config.prefix_cache_bytes;
  mc.seed = config.seed;
  return mc;
}

}  // namespace

PerformancePredictor::PerformancePredictor(const PredictorConfig& config)
    : model_(ToModelConfig(config)) {}

double PerformancePredictor::Predict(const std::vector<int>& tokens) const {
  FASTFT_TRACE_SPAN("predictor/predict");
  return model_.Predict(tokens);
}

double PerformancePredictor::Fit(const std::vector<SequenceRecord>& records,
                                 int epochs, Rng* rng) {
  FASTFT_CHECK(rng != nullptr);
  if (records.empty()) return 0.0;
  double last_mse = 0.0;
  std::vector<int> order(records.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(order);
    double mse = 0.0;
    for (int i : order) {
      mse += model_.TrainStep(records[i].tokens, records[i].score);
      model_.ApplyStep();
    }
    last_mse = mse / static_cast<double>(records.size());
  }
  return last_mse;
}

double PerformancePredictor::Finetune(
    const std::vector<SequenceRecord>& records) {
  if (records.empty()) return 0.0;
  double mse = 0.0;
  for (const SequenceRecord& record : records) {
    mse += model_.TrainStep(record.tokens, record.score);
    model_.ApplyStep();
  }
  return mse / static_cast<double>(records.size());
}

std::vector<double> PerformancePredictor::Encode(
    const std::vector<int>& tokens) const {
  return model_.Encode(tokens);
}

}  // namespace fastft
