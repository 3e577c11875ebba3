// Engine benchmark runner: one workload of FastFtEngine::Run() on a
// generated synthetic dataset, run closed-loop — one Run at a time, with no
// more pool executors than the workload names — for a fixed measuring time.
//
// The runner measures; it derives nothing. Every timed call it makes into a
// layer is printed as one span record (a JSON object on its own stdout
// line); perfbench/run.py turns the records into metrics, checks
// correctness, and prints the result. perfbench/README.md explains the
// workloads and which layer metric moves which end-to-end metric.
//
// Usage:
//   engine_bench --workload explore|eval_bound --seed N
//                --seconds S --trace 0|1 --work-dir DIR

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "core/feature_space.h"
#include "core/performance_predictor.h"
#include "core/run_report.h"
#include "core/tokenizer.h"
#include "data/synthetic.h"
#include "ml/evaluator.h"

namespace fastft {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is timed several times per invocation and run.py reports the
// median; probes likewise.
constexpr int kSetupReps = 15;
// Inputs generated during set-up: about as many as a workload gets through
// in a 50 s window; later ones are generated on demand.
constexpr int kRotaInputs = 48;
// Rota inputs run once more with tracing on: the phase shares of one input
// are as input-dependent as its run time.
constexpr int kTracedInputs = 3;
constexpr int kProbeReps = 7;
// Length of the fixed token sequence fed to the predictor probe.
constexpr int kProbeTokens = 32;
// Iterations of the host-speed spin loop (tens of milliseconds).
constexpr int64_t kSpinIterations = int64_t{1} << 24;

struct Workload {
  TaskType task = TaskType::kClassification;
  int samples = 0;
  int features = 0;
  /// Checkpoint and flight-recorder output on (explore only).
  bool durable_outputs = false;
  EngineConfig config;
};

// The two workloads put different Table II layers first; see
// perfbench/README.md for the measured phase shares.
bool MakeWorkload(const std::string& name, Workload* w) {
  EngineConfig& c = w->config;
  c.num_threads = 1;
  if (name == "explore") {
    // Paper-default FastFT as a user runs it: balanced phases, and the only
    // workload on the checkpoint / flight-recorder write path.
    w->task = TaskType::kClassification;
    w->samples = 300;
    w->features = 32;
    w->durable_outputs = true;
    c.episodes = 12;
    c.steps_per_episode = 10;
    c.cold_start_episodes = 1;
    c.finetune_every_episodes = 4;
    c.checkpoint_every_episodes = 5;
  } else if (name == "eval_bound") {
    // Table II's FASTFT^-PP regime: every generating step pays a k-fold
    // forest evaluation, fanned out over two pool executors.
    w->task = TaskType::kClassification;
    w->samples = 1000;
    w->features = 12;
    c.use_performance_predictor = false;
    // The smallest feature budget the engine allows (originals + 16): the
    // space fills within a step or two, so every evaluation fits a forest
    // on about the same number of columns whatever the input.
    c.feature_space.max_features = 28;
    c.evaluator.folds = 4;
    c.evaluator.forest_trees = 12;
    c.episodes = 4;
    c.steps_per_episode = 6;
    c.cold_start_episodes = 2;
    c.num_threads = 2;
  } else {
    return false;
  }
  return true;
}

/// One JSON object built field by field (numbers keep all 17 digits;
/// non-finite numbers become null).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      body_ += buffer;
    } else {
      body_ += "null";
    }
    return *this;
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    Key(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonObject& Bool(const std::string& key, bool value) {
    Key(key);
    body_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    Key(key);
    Quoted(value);
    return *this;
  }
  /// `json` must be a complete JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  // Appends piecewise: GCC 12's -Wrestrict misfires on chained
  // std::string operator+ (PR105651).
  void Quoted(const std::string& text) {
    body_ += '"';
    body_ += JsonEscape(text);
    body_ += '"';
  }
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    Quoted(key);
    body_ += ':';
  }
  std::string body_;
};

Clock::time_point g_origin;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Prints one completed span: the benchmark's own record of a call into a
/// layer, with whatever the call returned in `fields`.
void EmitSpan(const std::string& name, Clock::time_point start,
              Clock::time_point end, JsonObject fields = {}) {
  fields.Str("span", name)
      .Num("start_s", SecondsBetween(g_origin, start))
      .Num("dur_s", SecondsBetween(start, end));
  std::printf("%s\n", fields.str().c_str());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

volatile uint64_t g_spin_sink = 0;

/// Times a fixed integer loop that touches no repository code: a reading of
/// the host's current speed, to tell host slowdowns from program changes.
double HostSpinMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ull;
  for (int64_t i = 0; i < kSpinIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
  return 1e3 * SecondsBetween(start, Clock::now());
}

/// FNV-1a over the run report with its scheduling-dependent sections
/// cleared: equal digests mean equal scores, decisions, generated features,
/// evaluation counts, and health. Cleared are the timing buckets, the
/// metrics delta (latency histograms), and the prefix-cache counters, whose
/// hit/reuse split varies between runs once batched encodes share the cache
/// across pool threads (eval_bound) although every score stays identical.
std::string ReportDigest(const Dataset& dataset, EngineResult result) {
  result.times.Clear();
  result.metrics = obs::MetricsSnapshot{};
  result.estimation_cache = nn::PrefixCacheStats{};
  const std::string report = RunReportJson(dataset, result);
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : report) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// The traced run's layer data, all read from the engine's public outputs:
/// the frozen span rings, the metrics delta, and the result counters.
std::string TraceJson(const EngineResult& result, int main_tid,
                      const std::string& checkpoint_path) {
  const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  // Engine-phase spans of the thread that called Run(), in ring order.
  std::string main_spans = "[";
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    if (thread.tid != main_tid) continue;
    for (const obs::SpanEvent& event : thread.events) {
      const std::string name = event.name;
      if (name.rfind("engine/", 0) != 0) continue;
      if (main_spans.size() > 1) main_spans += ",";
      main_spans += "[\"" + JsonEscape(name) + "\"," +
                    std::to_string(event.start_ns) + "," +
                    std::to_string(event.duration_ns) + "]";
    }
  }
  main_spans += "]";

  JsonObject totals;
  for (const obs::SpanStats& stats : obs::SummarizeSpans(snapshot)) {
    totals.Raw(stats.name, "[" + std::to_string(stats.count) + "," +
                               std::to_string(stats.total_ns) + "]");
  }

  JsonObject counters;
  JsonObject histograms;
  for (const obs::MetricValue& metric : result.metrics.values) {
    if (metric.kind == obs::MetricKind::kCounter) {
      counters.Int(metric.name, metric.counter);
    } else if (metric.kind == obs::MetricKind::kHistogram) {
      std::string bounds = "[";
      for (double bound : metric.histogram.upper_bounds) {
        if (bounds.size() > 1) bounds += ",";
        bounds += std::to_string(bound);
      }
      std::string counts = "[";
      for (int64_t count : metric.histogram.counts) {
        if (counts.size() > 1) counts += ",";
        counts += std::to_string(count);
      }
      histograms.Raw(metric.name, JsonObject()
                                      .Raw("bounds", bounds + "]")
                                      .Raw("counts", counts + "]")
                                      .str());
    }
  }

  const nn::PrefixCacheStats& cache = result.estimation_cache;
  std::error_code ec;
  const uintmax_t checkpoint_size =
      checkpoint_path.empty()
          ? 0
          : std::filesystem::file_size(checkpoint_path, ec);

  return JsonObject()
      .Raw("main_spans", main_spans)
      .Raw("span_totals", totals.str())
      .Int("dropped_spans", snapshot.TotalDropped())
      .Raw("counters", counters.str())
      .Raw("histograms", histograms.str())
      .Raw("cache", JsonObject()
                        .Int("lookups", cache.lookups)
                        .Int("hits", cache.hits)
                        .Int("tokens_reused", cache.tokens_reused)
                        .Int("tokens_encoded", cache.tokens_encoded)
                        .str())
      .Int("recorded_events", result.recorded_events)
      .Int("recorded_dropped", result.recorded_dropped)
      .Int("checkpoint_bytes",
           ec ? 0 : static_cast<int64_t>(checkpoint_size))
      .str();
}

/// One rota input: the dataset and the engine seed derived from the
/// workload seed and the input's index.
struct Input {
  Dataset dataset;
  EngineConfig config;
};

Input MakeInput(const Workload& w, uint64_t seed, int index) {
  SyntheticSpec spec;
  spec.samples = w.samples;
  spec.features = w.features;
  spec.seed = DeriveSeed(seed, 2 * static_cast<uint64_t>(index));
  Input input;
  const Clock::time_point start = Clock::now();
  input.dataset = MakeSynthetic(w.task, spec);
  EmitSpan("data/generate", start, Clock::now(),
           JsonObject().Int("input", index));
  input.config = w.config;
  input.config.seed = DeriveSeed(seed, 2 * static_cast<uint64_t>(index) + 1);
  return input;
}

/// One closed-loop unit of work: a host-speed reading, then one Run() of
/// rota input `index`. `role` is "timed" (feeds the end-to-end metrics),
/// "warmup" (input 0 before timing starts) or "traced".
void TimedRun(const EngineConfig& config, const Dataset& dataset, int index,
              const std::string& role, int main_tid) {
  FastFtEngine engine(config);
  const double spin_ms = HostSpinMs();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  Result<EngineResult> run = engine.Run(dataset);
  const Clock::time_point end = Clock::now();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  JsonObject fields;
  fields.Str("role", role)
      .Int("input", index)
      .Num("spin_ms", spin_ms)
      .Num("cpu_s", cpu_s)
      .Bool("ok", run.ok())
      .Int("episodes_expected", config.episodes);
  if (!run.ok()) {
    fields.Str("error", run.status().ToString());
    EmitSpan("core/run", start, end, fields);
    return;
  }
  const EngineResult& result = run.value();
  fields.Int("episodes_completed", result.completed_episodes)
      .Bool("interrupted", result.interrupted)
      .Num("base_score", result.base_score)
      .Num("best_score", result.best_score)
      .Int("total_steps", result.total_steps)
      .Int("downstream_evaluations", result.downstream_evaluations)
      .Str("digest", ReportDigest(dataset, result));
  if (role == "traced") {
    fields.Raw("trace", TraceJson(result, main_tid, config.checkpoint_path));
  }
  EmitSpan("core/run", start, end, fields);
}

/// Times single calls into three layer entry points, outside the engine
/// loop, on an input's dataset with the workload's settings.
void LayerProbes(const Workload& w, const Input& input) {
  const Dataset& dataset = input.dataset;
  EvaluatorConfig eval_config = w.config.evaluator;
  eval_config.num_threads = w.config.num_threads;
  eval_config.seed = DeriveSeed(input.config.seed, 21);
  const Evaluator evaluator(eval_config);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const double score = evaluator.Evaluate(dataset);
    EmitSpan("ml/evaluate_call", start, Clock::now(),
             JsonObject().Num("output", score));
  }

  FeatureSpaceConfig fs_config = w.config.feature_space;
  fs_config.max_features =
      std::max(fs_config.max_features, dataset.NumFeatures() + 16);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const FeatureSpace space(dataset, fs_config);
    const Clock::time_point start = Clock::now();
    const std::vector<std::vector<int>> clusters =
        ClusterFeatures(space, w.config.clustering);
    const Clock::time_point end = Clock::now();
    int64_t covered = 0;
    for (const std::vector<int>& cluster : clusters) {
      covered += static_cast<int64_t>(cluster.size());
    }
    EmitSpan("core/cluster_call", start, end,
             JsonObject()
                 .Num("output", static_cast<double>(clusters.size()))
                 .Int("columns", space.NumColumns())
                 .Int("covered", covered));
  }

  const Tokenizer tokenizer(w.config.tokenizer_feature_buckets,
                            w.config.tokenizer_max_length);
  std::vector<int> tokens(kProbeTokens);
  const int span = tokenizer.vocab_size() - Tokenizer::kNumSpecials;
  for (int i = 0; i < kProbeTokens; ++i) {
    tokens[static_cast<size_t>(i)] = Tokenizer::kNumSpecials + (7 * i) % span;
  }
  PredictorConfig pp_config;
  pp_config.backbone = w.config.backbone;
  pp_config.vocab_size = tokenizer.vocab_size();
  pp_config.seed = DeriveSeed(input.config.seed, 22);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    // A fresh predictor each time: the call pays the full encode, not a
    // prefix-cache hit.
    const PerformancePredictor predictor(pp_config);
    const Clock::time_point start = Clock::now();
    const double predicted = predictor.Predict(tokens);
    EmitSpan("nn/predict_call", start, Clock::now(),
             JsonObject().Num("output", predicted));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload explore|eval_bound "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  g_origin = Clock::now();
  std::string workload_name;
  std::string work_dir;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (argc % 2 != 1 || !MakeWorkload(workload_name, &w) || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || work_dir.empty()) {
    return Usage();
  }
  SetLogLevel(LogLevel::kWarning);
  const int main_tid = obs::CurrentThreadId();

  if (w.durable_outputs) {
    w.config.checkpoint_path = work_dir + "/engine.ffcp";
    w.config.record_path = work_dir + "/engine.ffrc";
  }

  // One Run's work depends strongly on its input (which operations the
  // agents pick, how many steps earn a downstream evaluation), so a single
  // input would make the benchmark measure the seed, not the program. The
  // timed loop walks a rota of inputs derived from the seed; a faster
  // program gets further down the same rota.
  //
  // Set-up: generating the rota's datasets, constructing the engine, and
  // (for a pooled workload) the lazy start of the shared pool, which only
  // the first repetition pays.
  std::vector<Input> rota;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point setup_start = Clock::now();
    rota.clear();
    for (int index = 0; index < kRotaInputs; ++index) {
      rota.push_back(MakeInput(w, seed, index));
    }
    const Clock::time_point generated = Clock::now();
    const FastFtEngine engine(rota[0].config);
    const Clock::time_point constructed = Clock::now();
    EmitSpan("core/engine_construct", generated, constructed);
    if (w.config.num_threads > 1) {
      const int workers = common::ThreadPool::Shared().num_workers();
      EmitSpan("common/pool_start", constructed, Clock::now(),
               JsonObject().Int("workers", workers));
    }
    EmitSpan("setup", setup_start, Clock::now(), JsonObject().Int("rep", rep));
  }

  // The first Run of a process pays for page faults and allocator growth,
  // which users pay once, not per run: an untimed warm-up of input 0 goes
  // first, and doubles as the digest check of input 0's timed run.
  TimedRun(rota[0].config, rota[0].dataset, 0, "warmup", main_tid);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int index = 0; index == 0 || Clock::now() < deadline; ++index) {
    if (index == static_cast<int>(rota.size())) {
      rota.push_back(MakeInput(w, seed, index));
    }
    const Input& input = rota[static_cast<size_t>(index)];
    TimedRun(input.config, input.dataset, index, "timed", main_tid);
  }

  if (trace == 1) {
    for (int index = 0; index < kTracedInputs; ++index) {
      const Input& input = rota[static_cast<size_t>(index)];
      EngineConfig traced_config = input.config;
      traced_config.trace_path = work_dir + "/engine_trace.json";
      // Large enough that no engine span of these workloads is dropped.
      traced_config.trace_ring_capacity = 1 << 18;
      TimedRun(traced_config, input.dataset, index, "traced", main_tid);
    }
    LayerProbes(w, rota[0]);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("%s\n",
              JsonObject()
                  .Str("span", "process")
                  .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) /
                                          1024.0)
                  .Int("threads", w.config.num_threads)
                  .str()
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace fastft

int main(int argc, char** argv) { return fastft::Main(argc, argv); }
