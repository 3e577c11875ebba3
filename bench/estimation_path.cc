// Estimation hot path: per-step estimate latency with and without the
// prefix-state cache, and with the vector kernels on and off.
//
// The bench replays the engine's append pattern — each step extends the
// token sequence by a few tokens and re-scores it with Predict +
// NormalizedNovelty — against identically-seeded component pairs, one with
// the prefix cache enabled and one from-scratch, then once more with the
// SIMD kernels disabled.
//
// Determinism is the hard requirement: cached, uncached, and scalar-kernel
// scores must agree bit for bit. The summary is persisted to
// BENCH_estimation.json through the perf ledger.

#include <cinttypes>
#include <sstream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "common/timer.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"

namespace fastft {
namespace {

constexpr int kVocab = 64;
constexpr int kLongStep = 32;  // acceptance: >= 2x for sequences >= 32 tokens

// One simulated episode: sequences grow by three tokens per step with the
// trailing EOS replaced, exactly the tokenizer's append pattern.
std::vector<std::vector<int>> Episode(int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  std::vector<int> body = {1};  // BOS
  for (int i = 0; i < steps; ++i) {
    for (int j = 0; j < 3; ++j) {
      body.push_back(3 + static_cast<int>(rng.Uniform() * (kVocab - 4)));
    }
    std::vector<int> seq = body;
    seq.push_back(2);  // EOS
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

int main_impl() {
  bench::PrintTitle("Estimation hot path — prefix cache + SIMD kernels");

  // --- Per-step estimation along growing sequences. ----------------------
  const int episodes = bench::FullMode() ? 12 : 6;
  const int steps = 40;  // final sequences reach 122 tokens
  std::vector<std::vector<std::vector<int>>> workload;
  for (int e = 0; e < episodes; ++e) {
    workload.push_back(Episode(steps, 500 + static_cast<uint64_t>(e)));
  }

  PredictorConfig pp_cached;
  pp_cached.seed = 51;
  PredictorConfig pp_scratch = pp_cached;
  pp_scratch.prefix_cache_bytes = 0;
  NoveltyConfig ne_cached;
  ne_cached.seed = 73;
  NoveltyConfig ne_scratch = ne_cached;
  ne_scratch.prefix_cache_bytes = 0;

  // Identically-seeded pairs: same weights, same scores, different encoder
  // work. Both sides score the same steps in the same order, so the novelty
  // running scale follows the same trajectory.
  auto run_steps = [&](PerformancePredictor* predictor,
                       NoveltyEstimator* novelty, double* long_seconds,
                       int64_t* long_steps) {
    std::vector<double> scores;
    WallTimer timer;
    for (const auto& episode : workload) {
      for (const std::vector<int>& seq : episode) {
        timer.Restart();
        double predicted = predictor->Predict(seq);
        double nov = novelty->NormalizedNovelty(seq);
        double elapsed = timer.Seconds();
        if (static_cast<int>(seq.size()) >= kLongStep) {
          *long_seconds += elapsed;
          ++*long_steps;
        }
        scores.push_back(predicted);
        scores.push_back(nov);
      }
    }
    return scores;
  };

  PerformancePredictor scratch_pred(pp_scratch);
  NoveltyEstimator scratch_nov(ne_scratch);
  double scratch_s = 0.0;
  int64_t long_steps = 0;
  std::vector<double> scratch_scores =
      run_steps(&scratch_pred, &scratch_nov, &scratch_s, &long_steps);

  PerformancePredictor cached_pred(pp_cached);
  NoveltyEstimator cached_nov(ne_cached);
  double cached_s = 0.0;
  int64_t long_steps_cached = 0;
  std::vector<double> cached_scores =
      run_steps(&cached_pred, &cached_nov, &cached_s, &long_steps_cached);

  const bool step_identical = BitIdentical(scratch_scores, cached_scores);
  const double step_speedup = cached_s > 0 ? scratch_s / cached_s : 0.0;
  nn::PrefixCacheStats cache = cached_pred.cache_stats();
  cache.Merge(cached_nov.cache_stats());
  const double us_scratch =
      long_steps > 0 ? 1e6 * scratch_s / static_cast<double>(long_steps) : 0.0;
  const double us_cached =
      long_steps > 0 ? 1e6 * cached_s / static_cast<double>(long_steps) : 0.0;
  std::printf("per-step (len >= %d, %" PRId64
              " steps)   scratch %8.1f us   cached %8.1f us   "
              "speedup %5.2fx   scores %s\n",
              kLongStep, long_steps, us_scratch, us_cached, step_speedup,
              step_identical ? "bit-identical" : "DIFFER");
  std::printf("prefix cache   hit rate %.3f   token reuse %.3f   "
              "(%" PRId64 " lookups, %" PRId64 " reused, %" PRId64
              " encoded)\n",
              cache.HitRate(), cache.TokenReuseRate(), cache.lookups,
              cache.tokens_reused, cache.tokens_encoded);

  // --- SIMD on/off determinism. -----------------------------------------
  // A third identically-seeded pair scores the same workload with the
  // vector kernels disabled; the SIMD layer's bit-identity contract says
  // the scores cannot move.
  const bool simd_was_enabled = simd::Enabled();
  simd::SetEnabled(false);
  PerformancePredictor scalar_pred(pp_cached);
  NoveltyEstimator scalar_nov(ne_cached);
  double scalar_kernels_s = 0.0;
  int64_t long_steps_scalar = 0;
  std::vector<double> scalar_kernel_scores =
      run_steps(&scalar_pred, &scalar_nov, &scalar_kernels_s,
                &long_steps_scalar);
  simd::SetEnabled(simd_was_enabled);
  const bool simd_identical =
      BitIdentical(scalar_kernel_scores, cached_scores);
  const double simd_speedup =
      cached_s > 0 ? scalar_kernels_s / cached_s : 0.0;
  std::printf("simd (%s)   scalar-kernel %.3fs   vector-kernel %.3fs   "
              "speedup %5.2fx   scores %s\n",
              simd::ActiveBackend(), scalar_kernels_s, cached_s, simd_speedup,
              simd_identical ? "bit-identical" : "DIFFER");

  std::ostringstream payload;
  payload << "{\n";
  payload << "    \"long_steps\": " << long_steps << ",\n";
  payload << "    \"scratch_us\": " << us_scratch << ",\n";
  payload << "    \"cached_us\": " << us_cached << ",\n";
  payload << "    \"cache_speedup\": " << step_speedup << ",\n";
  payload << "    \"hit_rate\": " << cache.HitRate() << ",\n";
  payload << "    \"token_reuse_rate\": " << cache.TokenReuseRate() << ",\n";
  payload << "    \"scalar_kernel_s\": " << scalar_kernels_s << ",\n";
  payload << "    \"simd_speedup\": " << simd_speedup << ",\n";
  payload << "    \"bit_identical\": "
          << (step_identical && simd_identical ? "true" : "false") << "\n  }";
  bench::PersistLedger("BENCH_estimation.json", "estimation_path",
                       payload.str());

  bench::ShapeCheck(step_identical,
                    "cached estimation reproduces from-scratch scores bit "
                    "for bit");
  bench::ShapeCheck(simd_identical,
                    "vector kernels reproduce scalar-kernel scores bit for "
                    "bit (FASTFT_SIMD on vs off)");
  bench::TimingCheck(step_speedup >= 2.0,
                     "prefix cache >= 2x per-step estimation speedup for "
                     "sequences >= " + std::to_string(kLongStep) + " tokens");
  return bench::ExitCode();
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
