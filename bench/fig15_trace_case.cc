// Fig. 15: case study — distinct features generated at reward peaks on the
// Cardiovascular counterpart.
//
// The paper's claim: the reward trace has identifiable peaks, and at each
// peak the framework generated a *traceable* feature (a readable expression
// over the original columns) that improved the dataset.
//
// Rebased onto the flight recorder: the run writes a decision-level record
// stream, and the peak analysis below works from the DECODED stream, not
// the in-memory trace — demonstrating that the provenance needed for this
// figure survives the disk round-trip. The in-memory trace is kept only as
// a bit-identity cross-check.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/recorder.h"

namespace fastft {
namespace {

int main_impl() {
  bench::PrintTitle("Fig. 15 — reward trace with features at peaks "
                    "(Cardiovascular)");

  Dataset dataset = LoadZooDataset("Cardiovascular").ValueOrDie();
  EngineConfig cfg = bench::DefaultEngineConfig(1515);
  cfg.episodes = bench::FullMode() ? 14 : 10;
  const std::string record_path = "fig15_trace_case.ffr";
  cfg.record_path = record_path;
  EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();

  obs::DecodedRecordStream stream =
      obs::ReadRecordStream(record_path).ValueOrDie();
  std::remove(record_path.c_str());

  // Reconstruct the per-step reward trace and feature attribution from the
  // recorded decision events alone.
  struct Step {
    int episode = 0;
    int step = 0;
    double reward = 0.0;
    std::string feature;
  };
  std::vector<Step> steps;
  for (const obs::RecordEvent& e : stream.events) {
    if (e.kind != obs::RecordEventKind::kDecision) continue;
    steps.push_back({e.episode, e.step, e.reward, e.detail});
  }

  // The decoded stream must agree with the in-memory trace bit for bit.
  bool stream_matches = steps.size() == r.trace.size();
  for (size_t i = 0; stream_matches && i < steps.size(); ++i) {
    stream_matches = steps[i].episode == r.trace[i].episode &&
                     steps[i].step == r.trace[i].step &&
                     steps[i].reward == r.trace[i].reward &&
                     steps[i].feature == r.trace[i].top_new_feature;
  }

  // A "peak" is a step whose reward exceeds both neighbors and the trace
  // mean + 0.5 std.
  std::vector<double> rewards;
  for (const Step& s : steps) rewards.push_back(s.reward);
  double mean = Mean(rewards);
  double sd = bench::StdDev(rewards);
  double threshold = mean + 0.5 * sd;

  std::printf("reward trace decoded from %zu recorded events "
              "(one row per peak step; * marks a peak):\n",
              stream.events.size());
  int peaks = 0;
  int traceable_peaks = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    bool peak = s.reward > threshold &&
                (i == 0 || rewards[i] >= rewards[i - 1]) &&
                (i + 1 == rewards.size() || rewards[i] >= rewards[i + 1]);
    if (peak) {
      ++peaks;
      traceable_peaks += !s.feature.empty();
      std::printf("  ep %2d step %d  reward %+7.4f *  %s\n", s.episode,
                  s.step, s.reward,
                  s.feature.empty() ? "(budget-replaced step)"
                                    : s.feature.c_str());
    }
  }
  std::printf("\n%d peaks, %d carry a traceable generated feature\n", peaks,
              traceable_peaks);
  std::printf("base %.3f -> best %.3f\n", r.base_score, r.best_score);

  bench::ShapeCheck(stream_matches,
                    "the decoded record stream reproduces the in-memory "
                    "trace bit for bit");
  bench::ShapeCheck(peaks >= 3, "the reward trace has multiple clear peaks");
  bench::ShapeCheck(traceable_peaks >= peaks - 1,
                    "features at the peaks are traceable expressions "
                    "(paper: e.g. Weight/(Active*DBP))");
  bench::ShapeCheck(r.best_score > r.base_score,
                    "peak features improve the downstream task");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
