// Regression workflow: transform several OpenML-style regression datasets,
// report 1-RAE gains, and persist the best transformation program.
//
// Demonstrates the train → save program → re-apply cycle on regression
// tasks (the paper's OpenML_xxx rows of Table I).

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "core/expression_parser.h"
#include "data/dataset_zoo.h"

int main() {
  const char* names[] = {"OpenML_589", "OpenML_620", "OpenML_586"};

  double best_gain = -1.0;
  fastft::Dataset best_original;
  fastft::EngineResult best_result;

  std::printf("%-14s %8s %8s %8s %10s\n", "dataset", "base", "best", "gain",
              "features");
  for (const char* name : names) {
    fastft::Dataset dataset = fastft::LoadZooDataset(name).ValueOrDie();
    fastft::EngineConfig config;
    config.episodes = 10;
    config.steps_per_episode = 8;
    config.cold_start_episodes = 3;
    config.seed = 42;
    fastft::FastFtEngine engine(config);
    fastft::EngineResult result = engine.Run(dataset).ValueOrDie();
    double gain = result.best_score - result.base_score;
    std::printf("%-14s %8.4f %8.4f %+8.4f %6d->%d\n", name,
                result.base_score, result.best_score, gain,
                dataset.NumFeatures(), result.best_dataset.NumFeatures());
    if (gain > best_gain) {
      best_gain = gain;
      best_original = dataset;
      best_result = result;
    }
  }

  // Persist the most successful transformation as a program.
  std::vector<std::string> names_vec;
  for (int c = 0; c < best_original.NumFeatures(); ++c) {
    names_vec.push_back(best_original.features.Name(c));
  }
  fastft::Result<fastft::TransformationProgram> program =
      fastft::TransformationProgram::FromTransformedDataset(
          best_result.best_dataset, best_original.NumFeatures(), names_vec);
  if (!program.ok()) {
    std::fprintf(stderr, "program extraction failed: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  const std::string path = "fastft_regression_program.txt";
  fastft::Status st = program.value().SaveToFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nbest transformation (%s, +%.4f 1-RAE) saved to %s:\n",
              best_original.name.c_str(), best_gain, path.c_str());
  int shown = 0;
  for (const fastft::ExprPtr& expr : program.value().expressions()) {
    if (++shown > 6) break;
    std::printf("  %s\n", fastft::ExprToString(expr).c_str());
  }
  std::printf(
      "\nre-apply it to fresh data with:\n"
      "  fastft apply --input new.csv --program %s\n",
      path.c_str());
  return 0;
}
