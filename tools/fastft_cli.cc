// fastft — command-line interface.
//
//   fastft list
//       Lists the built-in dataset zoo.
//
//   fastft transform --input data.csv --label <col> [--task C|R|D]
//                    [--episodes N] [--steps N] [--seed S] [--threads N]
//                    [--output out.csv] [--program prog.txt]
//                    [--report report.json]
//       Runs the FastFT engine on a CSV dataset, writes the transformed
//       dataset and (optionally) the discovered transformation program.
//
//   fastft apply --input new.csv --program prog.txt [--label <col>]
//                [--output out.csv]
//       Applies a saved transformation program to fresh data with the same
//       schema (label column optional; it is carried through if given).
//
//   fastft benchmark --dataset "<zoo name>" [--episodes N] [--seed S]
//                    [--threads N]
//       Quick engine run on a zoo dataset, printing the score breakdown.
//
//   --threads N parallelizes downstream evaluation (N = 0 uses every
//   hardware thread); scores are bit-identical to a serial run.
//
//   transform and benchmark both accept --trace-out trace.json (Chrome
//   trace-event export of the run — load in Perfetto or chrome://tracing),
//   --metrics-out metrics.json (the run's counter/histogram snapshot), and
//   --record-out run.ffr (the decision-level flight-recorder stream —
//   decode with fastft_inspect). None of them change scores: observability
//   only reads clocks, counts, and already-computed values.
//
//   Crash safety (transform and benchmark):
//     --checkpoint-dir DIR    snapshot engine state to DIR/fastft.ckpt at
//                             every episode boundary (atomic write)
//     --checkpoint-every N    write cadence in episodes (default 1)
//     --resume 1              restore from the checkpoint before running; a
//                             killed run resumed this way converges to the
//                             bit-identical result of an uninterrupted run
//     --budget-ms N           cooperative wall-clock budget; on expiry the
//                             run stops at a step boundary, writes a final
//                             checkpoint, and still emits its reports
//     --chaos-kill SPEC       test hook for tools/check_crash.sh: SPEC is
//                             "site:hit[:abort]" — the process dies the
//                             hit-th time the fault site is reached

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/fault.h"
#include "common/fs.h"
#include "core/engine.h"
#include "core/expression_parser.h"
#include "core/run_report.h"
#include "data/csv.h"
#include "data/dataset_zoo.h"

namespace fastft {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atoi(it->second.c_str());
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args.options[key] = argv[i + 1];
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fastft list\n"
               "  fastft transform --input data.csv --label <col> "
               "[--task C|R|D] [--episodes N] [--steps N] [--seed S] "
               "[--threads N] [--output out.csv] [--program prog.txt] "
               "[--trace-out trace.json] [--metrics-out metrics.json] "
               "[--record-out run.ffr]\n"
               "  fastft apply --input new.csv --program prog.txt "
               "[--label <col>] [--output out.csv]\n"
               "  fastft benchmark --dataset \"<zoo name>\" [--episodes N] "
               "[--seed S] [--threads N] [--trace-out trace.json] "
               "[--metrics-out metrics.json] [--record-out run.ffr] "
               "[--report report.json]\n"
               "crash safety (transform and benchmark):\n"
               "  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume 1] "
               "[--budget-ms N] [--chaos-kill site:hit[:abort]]\n");
  return 2;
}

Result<TaskType> ParseTask(const std::string& code) {
  if (code == "C") return TaskType::kClassification;
  if (code == "R") return TaskType::kRegression;
  if (code == "D") return TaskType::kDetection;
  return Status::InvalidArgument("task must be C, R, or D, got '" + code +
                                 "'");
}

int CmdList() {
  std::printf("%-20s %-9s %-5s %9s %9s\n", "name", "source", "task",
              "samples", "features");
  for (const ZooEntry& e : AllZooEntries()) {
    std::printf("%-20s %-9s %-5s %9d %9d\n", e.name.c_str(),
                e.source.c_str(), TaskTypeCode(e.task), e.samples,
                e.features);
  }
  return 0;
}

EngineConfig ConfigFromArgs(const Args& args) {
  EngineConfig config;
  config.episodes = args.GetInt("episodes", 10);
  config.steps_per_episode = args.GetInt("steps", 8);
  config.cold_start_episodes =
      std::min(3, std::max(1, config.episodes / 4));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  // 0 = all hardware threads; results are bit-identical for any value.
  config.num_threads = std::max(0, args.GetInt("threads", 1));
  config.trace_path = args.Get("trace-out");
  config.trace_ring_capacity =
      args.GetInt("trace-ring-capacity", config.trace_ring_capacity);
  config.record_path = args.Get("record-out");
  if (args.Has("checkpoint-dir")) {
    config.checkpoint_path = args.Get("checkpoint-dir") + "/fastft.ckpt";
  }
  config.checkpoint_every_episodes =
      args.GetInt("checkpoint-every", config.checkpoint_every_episodes);
  config.resume = args.GetInt("resume", 0) != 0;
  config.wall_clock_budget_ms = args.GetInt("budget-ms", 0);
  return config;
}

// Arms the deterministic process-kill chaos hook from a "site:hit[:abort]"
// spec (e.g. "checkpoint/after_write:2"): the process dies the hit-th time
// the fault site is reached. Driven by tools/check_crash.sh.
bool ArmChaosKill(const std::string& spec) {
  size_t first = spec.find(':');
  if (first == std::string::npos || first == 0) return false;
  std::string site = spec.substr(0, first);
  std::string rest = spec.substr(first + 1);
  KillMode mode = KillMode::kExit;
  size_t second = rest.find(':');
  if (second != std::string::npos) {
    std::string tail = rest.substr(second + 1);
    if (tail == "abort") {
      mode = KillMode::kAbort;
    } else if (tail != "exit") {
      return false;
    }
    rest = rest.substr(0, second);
  }
  char* end = nullptr;
  long hit = std::strtol(rest.c_str(), &end, 10);
  if (rest.empty() || end == nullptr || *end != '\0' || hit < 0) return false;
  FaultInjector::ArmKill({{site, hit}}, mode);
  return true;
}

// Shared by transform and benchmark: validates --chaos-kill before the run.
// Returns false (after printing the error) on a malformed spec.
bool ArmChaosIfRequested(const Args& args) {
  if (!args.Has("chaos-kill")) return true;
  if (!ArmChaosKill(args.Get("chaos-kill"))) {
    std::fprintf(stderr,
                 "error: malformed --chaos-kill '%s' (want site:hit[:abort])\n",
                 args.Get("chaos-kill").c_str());
    return false;
  }
  return true;
}

// Writes the run's metrics snapshot when --metrics-out was given. Returns
// false (after printing the error) only on an I/O failure.
bool WriteMetricsIfRequested(const Args& args, const EngineResult& result) {
  if (!args.Has("metrics-out")) return true;
  const std::string path = args.Get("metrics-out");
  Status st = common::AtomicWriteFile(path, result.metrics.ToJson() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "error: cannot write metrics to %s: %s\n",
                 path.c_str(), st.ToString().c_str());
    return false;
  }
  std::printf("wrote metrics snapshot to %s\n", path.c_str());
  return true;
}

void PrintRunSummary(const Dataset& dataset, const EngineResult& result) {
  std::printf("dataset: %d rows x %d features (task %s)\n", dataset.NumRows(),
              dataset.NumFeatures(), TaskTypeCode(dataset.task));
  std::printf("score: %.4f -> %.4f (%+.4f)\n", result.base_score,
              result.best_score, result.best_score - result.base_score);
  std::printf("downstream evaluations: %lld, predictor estimations: %lld\n",
              static_cast<long long>(result.downstream_evaluations),
              static_cast<long long>(result.predictor_estimations));
  std::printf("time: evaluation %.2fs, estimation %.2fs, optimization %.2fs\n",
              1e-9 * result.times.evaluation_ns,
              1e-9 * result.times.estimation_ns,
              1e-9 * result.times.optimization_ns);
  if (result.resumed) std::printf("resumed from checkpoint\n");
  if (result.interrupted) {
    std::printf("interrupted: partial report covers %d completed episodes\n",
                result.completed_episodes);
  }
  if (result.health.degraded()) {
    std::printf("health: %lld faults, %lld skipped updates, %lld quarantines "
                "(%lld recovered)\n",
                static_cast<long long>(result.health.faults_observed),
                static_cast<long long>(result.health.skipped_updates),
                static_cast<long long>(result.health.total_quarantines()),
                static_cast<long long>(result.health.total_recoveries()));
  }
}

int CmdTransform(const Args& args) {
  if (!args.Has("input") || !args.Has("label")) return Usage();
  Result<TaskType> task = ParseTask(args.Get("task", "C"));
  if (!task.ok()) {
    std::fprintf(stderr, "error: %s\n", task.status().ToString().c_str());
    return 1;
  }
  Result<Dataset> loaded =
      ReadDatasetCsv(args.Get("input"), args.Get("label"), task.value());
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();

  if (!ArmChaosIfRequested(args)) return 2;
  FastFtEngine engine(ConfigFromArgs(args));
  Result<EngineResult> run = engine.Run(dataset);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  EngineResult result = std::move(run).ValueOrDie();
  PrintRunSummary(dataset, result);
  if (!WriteMetricsIfRequested(args, result)) return 1;

  if (args.Has("output")) {
    DataFrame frame = result.best_dataset.features;
    Status st = frame.AddColumn(args.Get("label"), result.best_dataset.labels);
    if (st.ok()) st = WriteCsvFile(frame, args.Get("output"));
    if (!st.ok()) {
      std::fprintf(stderr, "error writing output: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote transformed dataset to %s\n",
                args.Get("output").c_str());
  }
  if (args.Has("report")) {
    Status st = WriteRunReport(dataset, result, args.Get("report"));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON run report to %s\n", args.Get("report").c_str());
  }
  if (args.Has("program")) {
    std::vector<std::string> names;
    for (int c = 0; c < dataset.NumFeatures(); ++c) {
      names.push_back(dataset.features.Name(c));
    }
    Result<TransformationProgram> program =
        TransformationProgram::FromTransformedDataset(
            result.best_dataset, dataset.NumFeatures(), names);
    if (!program.ok()) {
      std::fprintf(stderr, "error extracting program: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    Status st = program.value().SaveToFile(args.Get("program"));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %d-expression program to %s\n",
                program.value().size(), args.Get("program").c_str());
  }
  return 0;
}

int CmdApply(const Args& args) {
  if (!args.Has("input") || !args.Has("program")) return Usage();
  Result<TransformationProgram> program =
      TransformationProgram::LoadFromFile(args.Get("program"));
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  Dataset dataset;
  if (args.Has("label")) {
    Result<Dataset> loaded = ReadDatasetCsv(
        args.Get("input"), args.Get("label"), TaskType::kClassification);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).ValueOrDie();
  } else {
    Result<DataFrame> frame = ReadCsvFile(args.Get("input"));
    if (!frame.ok()) {
      std::fprintf(stderr, "error: %s\n", frame.status().ToString().c_str());
      return 1;
    }
    dataset.task = TaskType::kClassification;
    dataset.features = std::move(frame).ValueOrDie();
    dataset.labels.assign(dataset.features.NumRows(), 0.0);
  }

  Result<Dataset> applied = program.value().Apply(dataset);
  if (!applied.ok()) {
    std::fprintf(stderr, "error: %s\n", applied.status().ToString().c_str());
    return 1;
  }
  std::printf("applied %d expressions: %d -> %d columns\n",
              program.value().size(), dataset.NumFeatures(),
              applied.value().NumFeatures());

  std::string out_path = args.Get("output", "transformed.csv");
  DataFrame frame = applied.value().features;
  if (args.Has("label")) {
    Status st = frame.AddColumn(args.Get("label"), applied.value().labels);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Status st = WriteCsvFile(frame, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int CmdBenchmark(const Args& args) {
  if (!args.Has("dataset")) return Usage();
  Result<Dataset> loaded = LoadZooDataset(args.Get("dataset"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s (try 'fastft list')\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();
  if (!ArmChaosIfRequested(args)) return 2;
  FastFtEngine engine(ConfigFromArgs(args));
  Result<EngineResult> run = engine.Run(dataset);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  EngineResult result = std::move(run).ValueOrDie();
  PrintRunSummary(dataset, result);
  if (!WriteMetricsIfRequested(args, result)) return 1;
  if (args.Has("report")) {
    Status st = WriteRunReport(dataset, result, args.Get("report"));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON run report to %s\n", args.Get("report").c_str());
  }
  std::printf("\ntop generated features:\n");
  int shown = 0;
  for (int c = dataset.NumFeatures();
       c < result.best_dataset.NumFeatures() && shown < 8; ++c, ++shown) {
    std::printf("  %s\n", result.best_dataset.features.Name(c).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.command == "list") return CmdList();
  if (args.command == "transform") return CmdTransform(args);
  if (args.command == "apply") return CmdApply(args);
  if (args.command == "benchmark") return CmdBenchmark(args);
  return Usage();
}

}  // namespace
}  // namespace fastft

int main(int argc, char** argv) { return fastft::Main(argc, argv); }
