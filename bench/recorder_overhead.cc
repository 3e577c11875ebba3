// Overhead of the decision-level flight recorder: the same engine run with
// recording off vs. on (events appended to the run's record stream and
// flushed to disk every episode). The DESIGN.md guarantee under test:
// recording never steers — scores and run reports are bit-identical with
// recording on or off, at any thread count — and costs < 2% of engine
// wall clock, including the per-episode stream flushes.
//
// The run is persisted to BENCH_recorder.json under the perf-ledger
// envelope so tools/bench_ledger.py can regression-gate the overhead.

#include <cstdio>
#include <ctime>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/recorder.h"
#include "common/timer.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineConfig OverheadConfig(uint64_t seed) {
  EngineConfig cfg;
  // Long enough (~0.5s) that the per-episode stream flush amortizes the
  // way it does in a real run: a run of a few dozen milliseconds would put
  // the six fsync'd flushes alone at ~2% and measure the filesystem, not
  // the recorder.
  cfg.episodes = bench::FullMode() ? 10 : 6;
  cfg.steps_per_episode = 10;
  cfg.cold_start_episodes = 2;
  cfg.evaluator.folds = 3;
  cfg.evaluator.forest_trees = 10;
  cfg.num_threads = bench::BenchThreads();
  cfg.seed = seed;
  return cfg;
}

EngineResult RunOnce(const Dataset& dataset, uint64_t seed,
                     const std::string& record_path, int num_threads) {
  EngineConfig cfg = OverheadConfig(seed);
  cfg.record_path = record_path;
  if (num_threads > 0) cfg.num_threads = num_threads;
  return FastFtEngine(cfg).Run(dataset).ValueOrDie();
}

int Main() {
  bench::PrintTitle(
      "Flight-recorder overhead: engine run with event recording off vs. on");

  SyntheticSpec spec;
  spec.samples = 240;
  spec.features = 6;
  spec.seed = 33;
  Dataset dataset = MakeClassification(spec);
  const std::string record_path = "recorder_overhead_run.ffr";

  const int reps = bench::FullMode() ? 7 : 5;
  // Warm-up: touch every lazy singleton outside the timed loops.
  RunOnce(dataset, 1, "", 0);

  // Each rep times an off run and an on run back to back (same seed,
  // adjacent in time) and keeps the median of the per-rep on/off CPU-time
  // ratios. This end-to-end delta goes to the ledger as the corroborating
  // whole-system view but is NOT the gate: run-to-run noise on a shared
  // host is ±3-4% (in CPU time too — frequency scaling and cache
  // interference land there), which cannot resolve a sub-1% cost. The
  // primary bit-identity evidence comes from these same runs.
  WallTimer timer;
  double seconds_off = 0.0, seconds_on = 0.0;
  std::vector<double> ratios;
  std::vector<EngineResult> off, on;
  for (int r = 0; r < reps; ++r) {
    const uint64_t seed = 100 + static_cast<uint64_t>(r);
    timer.Restart();
    const std::clock_t c0 = std::clock();
    off.push_back(RunOnce(dataset, seed, "", 0));
    const std::clock_t c1 = std::clock();
    seconds_off += timer.Seconds();
    timer.Restart();
    on.push_back(RunOnce(dataset, seed, record_path, 0));
    const std::clock_t c2 = std::clock();
    seconds_on += timer.Seconds();
    if (c1 > c0) {
      ratios.push_back(static_cast<double>(c2 - c1) /
                       static_cast<double>(c1 - c0));
    }
  }
  const double median_ratio = ratios.empty() ? 1.0 : Quantile(ratios, 0.5);

  bool identical = true;
  int64_t events_per_run = 0;
  for (int r = 0; r < reps; ++r) {
    identical = identical && off[r].best_score == on[r].best_score &&
                off[r].episode_best == on[r].episode_best &&
                off[r].trace.size() == on[r].trace.size();
    for (size_t i = 0; identical && i < off[r].trace.size(); ++i) {
      identical = off[r].trace[i].reward == on[r].trace[i].reward;
    }
    events_per_run = on[r].recorded_events;
  }

  // Thread-count invariance of the stream itself: the same seed at 1 and 4
  // worker threads must produce byte-identical record streams.
  const std::string path_t1 = "recorder_overhead_t1.ffr";
  const std::string path_t4 = "recorder_overhead_t4.ffr";
  EngineResult t1 = RunOnce(dataset, 7, path_t1, 1);
  EngineResult t4 = RunOnce(dataset, 7, path_t4, 4);
  std::string stream_t1, stream_t4;
  bool streams_identical =
      common::ReadFileToString(path_t1, &stream_t1).ok() &&
      common::ReadFileToString(path_t4, &stream_t4).ok() &&
      stream_t1 == stream_t4 && t1.best_score == t4.best_score;
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path_t1);
  const bool decodable = decoded.ok();
  std::remove(record_path.c_str());
  std::remove(path_t1.c_str());
  std::remove(path_t4.c_str());

  const double paired_overhead_pct = (median_ratio - 1.0) * 100.0;

  // The gated overhead is built from directly measured recorder costs:
  // per-event Append over 10^5 reps plus the run's actual per-episode
  // stream flushes, against the run's own wall clock. An end-to-end on/off
  // ratio cannot resolve a sub-1% cost on a shared host whose run-to-run
  // noise is ±3-4% (in CPU time too — frequency scaling and cache
  // interference land there as well); Append and flush ARE the only code
  // the on-run adds, so their measured cost over the observed event/episode
  // counts is the overhead, with tight error bars. The paired end-to-end
  // medians stay in the ledger as the corroborating whole-system view.
  // Each chunk appends to a fresh, never-flushed stream, so the probe pays
  // the pending buffer's growth from empty and keeps its memory bounded.
  const int kAppendReps = 100000;
  const int kChunk = 1000;
  obs::RecordEvent probe;
  probe.kind = obs::RecordEventKind::kDecision;
  probe.detail = "(f0*f1)";  // realistic small-string provenance
  double append_total_seconds = 0.0;
  for (int chunk = 0; chunk < kAppendReps / kChunk; ++chunk) {
    obs::RecordStream sink = obs::RecordStream::Open(record_path, 0);
    timer.Restart();
    for (int i = 0; i < kChunk; ++i) {
      probe.step = i;
      sink.Append(probe);
    }
    append_total_seconds += timer.Seconds();
  }
  const double append_seconds =
      append_total_seconds / static_cast<double>(kAppendReps);

  const int episodes = OverheadConfig(0).episodes;
  timer.Restart();
  RunOnce(dataset, 100, record_path, 0);
  const double on_run_seconds = timer.Seconds();
  // Re-flush the recorded stream episode by episode to time the actual
  // whole-file rewrites (fsync included) at the sizes this run produces.
  // Opening at `episodes` keeps every block of the run, so each flush
  // rewrites at least the full recorded file.
  obs::RecordStream replay = obs::RecordStream::Open(record_path, episodes);
  FASTFT_CHECK_EQ(replay.episode_blocks(), episodes)
      << "flush bench invalidated: the recorded stream lost blocks";
  timer.Restart();
  for (int e = 0; e < episodes; ++e) {
    Status flush = replay.FlushEpisode(1000 + e);
    FASTFT_CHECK(flush.ok()) << "flush bench invalidated: "
                             << flush.ToString();
  }
  const double flush_seconds = timer.Seconds();
  std::remove(record_path.c_str());

  const double overhead_pct =
      on_run_seconds > 0
          ? (static_cast<double>(events_per_run) * append_seconds +
             flush_seconds) /
                on_run_seconds * 100.0
          : 0.0;
  std::printf(
      "%d paired engine runs   recording off %.3fs   on %.3fs   "
      "median-pair delta %+.2f%%   (%lld events/run, stream %zu bytes)\n",
      reps, seconds_off, seconds_on, paired_overhead_pct,
      static_cast<long long>(events_per_run), stream_t1.size());
  std::printf(
      "measured recorder cost: %.0f ns/event, %.2f ms for %d episode "
      "flushes -> %.3f%% of a %.2fs run\n",
      append_seconds * 1e9, flush_seconds * 1e3, episodes, overhead_pct,
      on_run_seconds);

  std::ostringstream payload;
  payload << "{\n";
  payload << "    \"reps\": " << reps << ",\n";
  payload << "    \"seconds_off\": " << seconds_off << ",\n";
  payload << "    \"seconds_on\": " << seconds_on << ",\n";
  payload << "    \"paired_delta_pct\": " << paired_overhead_pct << ",\n";
  payload << "    \"append_latency_ns\": " << append_seconds * 1e9 << ",\n";
  payload << "    \"flush_ms\": " << flush_seconds * 1e3 << ",\n";
  payload << "    \"overhead_pct\": " << overhead_pct << ",\n";
  payload << "    \"events_per_run\": " << events_per_run << ",\n";
  payload << "    \"stream_bytes\": " << stream_t1.size() << ",\n";
  payload << "    \"bit_identical_on_off\": "
          << (identical ? "true" : "false") << ",\n";
  payload << "    \"stream_identical_t1_t4\": "
          << (streams_identical ? "true" : "false") << ",\n";
  payload << "    \"stream_decodable\": " << (decodable ? "true" : "false")
          << "\n  }";
  bench::PersistLedger("BENCH_recorder.json", "recorder_overhead",
                       payload.str());

  bench::ShapeCheck(identical,
                    "scores and traces are bit-identical with recording on "
                    "vs. off");
  bench::ShapeCheck(streams_identical,
                    "record streams are byte-identical at 1 and 4 threads");
  bench::ShapeCheck(decodable, "the flushed stream decodes cleanly");
  bench::TimingCheck(overhead_pct < 2.0,
                     "enabled event recording costs < 2% engine wall clock");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::Main(); }
