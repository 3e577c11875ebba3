// Table IV: top-10 feature importances of the original vs FastFT-transformed
// Wine Quality Red counterpart, with traceable expression strings.
//
// The paper's claims: (1) the transformed set's importance mass is spread
// over many generated features instead of concentrating on a few originals
// (smaller top-10 sum); (2) every generated feature is a readable
// mathematical expression over the original columns; (3) the downstream
// score improves.
//
// Rebased onto the flight recorder: the run writes a decision-level record
// stream, and traceability claim (2) is verified against the DECODED stream
// — every generative step recorded on disk carries the expression it
// produced, so provenance survives without the process that ran the search.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>

#include "bench_util.h"
#include "common/recorder.h"

namespace fastft {
namespace {

void PrintTopFeatures(const Dataset& dataset, const Evaluator& evaluator,
                      double score) {
  std::vector<double> importance = evaluator.FeatureImportance(dataset);
  std::vector<int> order(importance.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return importance[a] > importance[b]; });
  double top_sum = 0.0;
  for (int i = 0; i < 10 && i < static_cast<int>(order.size()); ++i) {
    std::printf("  %-52s %.3f\n",
                dataset.features.Name(order[i]).c_str(),
                importance[order[i]]);
    top_sum += importance[order[i]];
  }
  std::printf("  score: %.3f   top-10 importance sum: %.3f\n", score,
              top_sum);
}

int main_impl() {
  bench::PrintTitle(
      "Table IV — top-10 important features, original vs FASTFT (Wine "
      "Quality Red)");

  Dataset dataset = LoadZooDataset("Wine Quality Red").ValueOrDie();
  Evaluator evaluator;

  double base_score = evaluator.Evaluate(dataset);
  std::printf("\nOriginal dataset (%d features):\n", dataset.NumFeatures());
  PrintTopFeatures(dataset, evaluator, base_score);

  EngineConfig cfg = bench::DefaultEngineConfig(808);
  const std::string record_path = "table4_traceability.ffr";
  cfg.record_path = record_path;
  FastFtEngine engine(cfg);
  EngineResult result = engine.Run(dataset).ValueOrDie();
  std::printf("\nFASTFT-transformed dataset (%d features):\n",
              result.best_dataset.NumFeatures());
  PrintTopFeatures(result.best_dataset, evaluator, result.best_score);

  // Shape checks.
  std::vector<double> base_importance = evaluator.FeatureImportance(dataset);
  std::vector<double> ft_importance =
      evaluator.FeatureImportance(result.best_dataset);
  auto top10_sum = [](std::vector<double> imp) {
    std::sort(imp.begin(), imp.end(), std::greater<double>());
    double s = 0;
    for (size_t i = 0; i < 10 && i < imp.size(); ++i) s += imp[i];
    return s;
  };
  bench::ShapeCheck(result.best_score >= base_score,
                    "transformation does not hurt the downstream score "
                    "(paper: 0.672 -> 0.695)");
  bench::ShapeCheck(
      result.best_dataset.NumFeatures() > dataset.NumFeatures()
          ? top10_sum(ft_importance) < top10_sum(base_importance)
          : true,
      "importance is more balanced after transformation (smaller top-10 "
      "sum; paper: 0.931 -> 0.188)");
  bool all_traceable = true;
  for (int c = 0; c < result.best_dataset.NumFeatures(); ++c) {
    all_traceable &= !result.best_dataset.features.Name(c).empty();
  }
  bench::ShapeCheck(all_traceable,
                    "every transformed column carries a readable expression");

  // Offline traceability: the record stream on disk attributes every
  // generative step to the expression it produced, without re-running or
  // even having the in-memory result.
  obs::DecodedRecordStream stream =
      obs::ReadRecordStream(record_path).ValueOrDie();
  std::remove(record_path.c_str());
  int generative_steps = 0;
  int attributed_steps = 0;
  std::set<std::string> recorded_expressions;
  double final_best = 0.0;
  for (const obs::RecordEvent& e : stream.events) {
    if (e.kind == obs::RecordEventKind::kEpisode) final_best = e.best_score;
    if (e.kind != obs::RecordEventKind::kDecision || !e.generated) continue;
    ++generative_steps;
    if (!e.detail.empty()) {
      ++attributed_steps;
      recorded_expressions.insert(e.detail);
    }
  }
  std::printf("\nrecord stream: %zu events, %d generative steps, %d with a "
              "recorded expression (%zu distinct)\n",
              stream.events.size(), generative_steps, attributed_steps,
              recorded_expressions.size());
  bench::ShapeCheck(
      generative_steps > 0 && attributed_steps == generative_steps,
      "the decoded record stream attributes every generative step to a "
      "readable expression");
  bench::ShapeCheck(final_best == result.best_score,
                    "the stream's episode marks reproduce the final best "
                    "score bit for bit");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
