// Shared helpers for the benchmark harness binaries.
//
// Every bench binary reproduces one table or figure of the paper. Sizes are
// tuned so the default run of the full harness finishes in minutes; set
// FASTFT_BENCH_FULL=1 for larger sweeps.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "common/fs.h"
#include "common/simd_kernels.h"
#include "common/stats.h"
#include "core/engine.h"
#include "data/dataset_zoo.h"

namespace fastft {
namespace bench {

/// True when FASTFT_BENCH_FULL=1 is exported.
inline bool FullMode() {
  const char* env = std::getenv("FASTFT_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// Worker threads for downstream evaluation (FASTFT_THREADS env; default 1
/// = serial, 0 = all hardware threads). Every reported score is
/// bit-identical for any value — the knob only changes bench wall-clock, so
/// the timing benches (Table II, Fig. 9/10) should stay at their default.
inline int BenchThreads() {
  const char* env = std::getenv("FASTFT_THREADS");
  if (env == nullptr) return 1;
  return std::max(0, std::atoi(env));
}

inline void PrintTitle(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Deterministic checks that missed so far in this process.
inline int shape_misses = 0;

/// Printed at the end of each harness: a qualitative property the paper
/// reports that does not depend on wall clock, and whether this run
/// reproduced it. A miss makes ExitCode() 1.
inline void ShapeCheck(bool ok, const std::string& claim) {
  std::printf("paper-shape check: [%s] %s\n", ok ? "OK" : "MISS",
              claim.c_str());
  if (!ok) ++shape_misses;
}

/// The same line for a wall-clock claim (a speedup, a runtime share, an
/// overhead). It depends on the host's load, so it stays informational and
/// never fails the run.
inline void TimingCheck(bool ok, const std::string& claim) {
  std::printf("paper-shape check: [%s] %s\n", ok ? "OK" : "MISS",
              claim.c_str());
}

/// Every bench main's exit code: 1 if a ShapeCheck missed, else 0.
inline int ExitCode() { return shape_misses > 0 ? 1 : 0; }

/// Bench-tuned FastFT configuration (scaled-down schedule of the paper's
/// 200×15; see DESIGN.md).
inline EngineConfig DefaultEngineConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.episodes = FullMode() ? 16 : 10;
  cfg.steps_per_episode = 8;
  cfg.cold_start_episodes = 3;
  cfg.finetune_every_episodes = 3;
  cfg.evaluator.folds = 3;
  cfg.evaluator.forest_trees = 8;
  cfg.num_threads = BenchThreads();
  cfg.seed = seed;
  return cfg;
}

inline BaselineConfig DefaultBaselineConfig(uint64_t seed) {
  BaselineConfig cfg;
  cfg.iterations = FullMode() ? 36 : 24;
  cfg.evaluator.folds = 3;
  cfg.evaluator.forest_trees = 8;
  cfg.evaluator.num_threads = BenchThreads();
  cfg.caafe_llm_latency = 0.12;
  cfg.seed = seed;
  return cfg;
}

/// Schema version of the perf-ledger envelope below (bumped on any change
/// to the envelope keys; tools/bench_ledger.py rejects versions it does not
/// know).
inline constexpr int kLedgerVersion = 1;

/// The standard output of the shell command `command`, or nullopt when it
/// could not run or exited non-zero.
inline std::optional<std::string> CommandOutput(const char* command) {
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  if (pclose(pipe) != 0) return std::nullopt;
  return out;
}

/// The commit of the repository the ledger is written into (the working
/// directory): `git rev-parse HEAD`, suffixed "-dirty" when a tracked file
/// differs from it, or "unstamped" outside git.
inline std::string LedgerCommit() {
  std::optional<std::string> head =
      CommandOutput("git rev-parse HEAD 2>/dev/null");
  if (!head || head->empty()) return "unstamped";
  std::string commit = head->substr(0, head->find('\n'));
  std::optional<std::string> changes =
      CommandOutput("git status --porcelain --untracked-files=no 2>/dev/null");
  if (!changes || !changes->empty()) commit += "-dirty";
  return commit;
}

/// Wraps one bench's JSON payload in the cross-run perf-ledger envelope and
/// persists it atomically. Every committed BENCH_*.json carries the same
/// provenance header — schema version, SIMD backend, worker-thread count,
/// commit — so tools/bench_ledger.py can validate, diff, and
/// regression-gate runs without per-bench knowledge. `payload` must be a
/// complete JSON value.
inline void PersistLedger(const std::string& file, const std::string& bench,
                          const std::string& payload) {
  std::ostringstream json;
  json << "{\n  \"ledger_version\": " << kLedgerVersion << ",\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"backend\": \"" << simd::ActiveBackend() << "\",\n"
       << "  \"threads\": " << BenchThreads() << ",\n"
       << "  \"commit\": \"" << LedgerCommit() << "\",\n"
       << "  \"payload\": " << payload << "\n}\n";
  Status wrote = common::AtomicWriteFile(file, json.str());
  if (!wrote.ok()) {
    std::printf("warning: could not persist %s: %s\n", file.c_str(),
                wrote.message().c_str());
  } else {
    std::printf("persisted %s\n", file.c_str());
  }
}

/// Sample standard deviation (divides by n - 1), unlike the population
/// fastft::StdDev (common/stats.h); 0 for fewer than 2 values.
inline double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double acc = 0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

/// Paired t-statistic of (a - b) across datasets.
inline double PairedTStat(const std::vector<double>& a,
                          const std::vector<double>& b) {
  std::vector<double> diff;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    diff.push_back(a[i] - b[i]);
  }
  if (diff.size() < 2) return 0.0;
  double sd = StdDev(diff);
  if (sd < 1e-12) return 0.0;
  return Mean(diff) / (sd / std::sqrt(static_cast<double>(diff.size())));
}

/// One-sided p-value via the normal approximation of the t distribution
/// (adequate at df ≈ 20; documented in EXPERIMENTS.md).
inline double OneSidedP(double t) { return 0.5 * std::erfc(t / std::sqrt(2.0)); }

}  // namespace bench
}  // namespace fastft

