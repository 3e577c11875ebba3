// Composing the lower-level building blocks directly (no engine).
//
// Shows the library's layered API: FeatureSpace crossing, MI clustering,
// state representation, tokenization, and a hand-driven Performance
// Predictor — the pieces FastFtEngine wires together — plus CSV export of
// the final dataset.

#include <cstdio>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/feature_space.h"
#include "core/performance_predictor.h"
#include "core/state.h"
#include "core/tokenizer.h"
#include "data/csv.h"
#include "data/dataset_zoo.h"
#include "ml/evaluator.h"

int main() {
  fastft::Dataset dataset = fastft::LoadZooDataset("SVMGuide3").ValueOrDie();
  fastft::Evaluator evaluator;
  fastft::Rng rng(5);

  // 1. A FeatureSpace holds the evolving transformed feature set.
  fastft::FeatureSpaceConfig fs_config;
  fs_config.max_features = dataset.NumFeatures() + 24;
  fastft::FeatureSpace space(dataset, fs_config);
  std::printf("start: %d columns, downstream score %.4f\n",
              space.NumColumns(), evaluator.Evaluate(dataset));

  // 2. Cluster features by the Eq. 2 MI distance.
  std::vector<std::vector<int>> clusters = fastft::ClusterFeatures(space);
  std::printf("clustered %d columns into %zu groups\n", space.NumColumns(),
              clusters.size());

  // 3. State representations (what the RL agents see).
  std::vector<double> overall = fastft::FeatureSetState(space);
  std::printf("Rep(F) is a %zu-dim statistics-of-statistics vector\n",
              overall.size());

  // 4. Manual group-wise crossings: multiply the two most label-relevant
  //    clusters, square the first.
  int added_mul = space.ApplyOperation(fastft::OpType::kMul, clusters[0],
                                       clusters.size() > 1 ? clusters[1]
                                                           : clusters[0],
                                       &rng);
  int added_sq =
      space.ApplyOperation(fastft::OpType::kSquare, clusters[0], {}, &rng);
  std::printf("crossings added %d product and %d square columns\n", added_mul,
              added_sq);

  // 5. The transformation sequence and a predictor trained on two points.
  fastft::Tokenizer tokenizer;
  std::vector<int> tokens = space.SequenceTokens(tokenizer);
  std::printf("transformation sequence has %zu tokens\n", tokens.size());

  double score = evaluator.Evaluate(space.ToDataset());
  std::printf("after crossing: %d columns, downstream score %.4f\n",
              space.NumColumns(), score);

  fastft::PredictorConfig pc;
  pc.vocab_size = tokenizer.vocab_size();
  fastft::PerformancePredictor predictor(pc);
  std::vector<fastft::SequenceRecord> records = {
      {tokenizer.EncodeFeatureSet({}), evaluator.Evaluate(dataset)},
      {tokens, score},
  };
  fastft::Rng train_rng(9);
  predictor.Fit(records, /*epochs=*/60, &train_rng);
  std::printf("predictor recall of the crossed sequence: %.4f (actual %.4f)\n",
              predictor.Predict(tokens), score);

  // 6. Export the transformed dataset into the working directory.
  fastft::Dataset out = space.ToDataset();
  fastft::DataFrame frame = out.features;
  fastft::Status st = frame.AddColumn("label", out.labels);
  if (st.ok()) {
    std::string path = "fastft_custom_pipeline.csv";
    st = fastft::WriteCsvFile(frame, path);
    if (st.ok()) std::printf("wrote transformed dataset to %s\n", path.c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
