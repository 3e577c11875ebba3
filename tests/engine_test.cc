// Integration tests for the FastFT engine (Algorithms 1 & 2).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/evaluation_memo.h"
#include "core/feature_space.h"
#include "core/run_report.h"
#include "data/dataset_zoo.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineConfig FastConfig(uint64_t seed = 2024) {
  EngineConfig cfg;
  cfg.episodes = 5;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 140;
  spec.features = 7;
  spec.seed = 50;
  return MakeClassification(spec);
}

TEST(EngineTest, RunsAndImprovesOrMatchesBase) {
  FastFtEngine engine(FastConfig());
  EngineResult r = engine.Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_GT(r.best_score, 0.0);
  EXPECT_EQ(r.total_steps, 5 * 4);
  EXPECT_EQ(r.trace.size(), 20u);
  EXPECT_EQ(r.episode_best.size(), 5u);
  EXPECT_TRUE(r.best_dataset.Validate().ok());
}

TEST(EngineTest, DeterministicGivenSeed) {
  EngineResult a = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EngineResult b = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].reward, b.trace[i].reward);
  }
}

TEST(EngineTest, SeedsChangeTrajectories) {
  EngineResult a = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EngineResult b = FastFtEngine(FastConfig(8)).Run(SmallDataset()).ValueOrDie();
  bool any_diff = false;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    any_diff |= (a.trace[i].reward != b.trace[i].reward);
  }
  EXPECT_TRUE(any_diff);
}

TEST(EngineTest, ColdStartAlwaysEvaluatesDownstream) {
  EngineConfig cfg = FastConfig();
  FastFtEngine engine(cfg);
  EngineResult r = engine.Run(SmallDataset()).ValueOrDie();
  for (const StepTrace& t : r.trace) {
    if (t.episode < cfg.cold_start_episodes && t.generated) {
      EXPECT_TRUE(t.downstream_evaluated)
          << "cold-start step used the predictor";
    }
  }
}

TEST(EngineTest, PredictorReducesDownstreamEvaluations) {
  EngineConfig with = FastConfig(3);
  with.episodes = 8;
  EngineConfig without = with;
  without.use_performance_predictor = false;
  EngineResult r_with = FastFtEngine(with).Run(SmallDataset()).ValueOrDie();
  EngineResult r_without = FastFtEngine(without).Run(SmallDataset()).ValueOrDie();
  EXPECT_LT(r_with.downstream_evaluations, r_without.downstream_evaluations);
  EXPECT_GT(r_with.predictor_estimations, 0);
  EXPECT_EQ(r_without.predictor_estimations, 0);
}

TEST(EngineTest, AblationFlagsRun) {
  for (int mask = 0; mask < 8; ++mask) {
    EngineConfig cfg = FastConfig(mask + 10);
    cfg.episodes = 3;
    cfg.use_performance_predictor = mask & 1;
    cfg.use_novelty = mask & 2;
    cfg.prioritized_replay = mask & 4;
    EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
    EXPECT_GE(r.best_score, r.base_score) << "mask " << mask;
  }
}

// The phase spans are the run's one timing record: every Table II bucket of
// EngineResult::times is exactly the summed duration of its phase spans,
// including the Fig. 14 sweep and the checkpoint phases.
TEST(EngineTest, PhaseTimesAreSpanSums) {
  const std::string checkpoint =
      ::testing::TempDir() + "/fastft_phase_times.ffcp";
  const std::string trace =
      ::testing::TempDir() + "/fastft_phase_times_trace.json";
  EngineConfig cfg = FastConfig();
  cfg.collect_novelty_metrics = true;
  cfg.checkpoint_path = checkpoint;
  cfg.trace_path = trace;
  const Dataset dataset = SmallDataset();
  EngineResult r = FastFtEngine(cfg).Run(dataset).ValueOrDie();
  const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  std::remove(checkpoint.c_str());
  std::remove(trace.c_str());
  ASSERT_EQ(snapshot.TotalDropped(), 0);

  const std::map<std::string, uint64_t PhaseTimes::*> bucket_of = {
      {"engine/select_action", &PhaseTimes::optimization_ns},
      {"engine/optimize", &PhaseTimes::optimization_ns},
      {"engine/coldstart_train", &PhaseTimes::optimization_ns},
      {"engine/finetune", &PhaseTimes::optimization_ns},
      {"engine/estimate", &PhaseTimes::estimation_ns},
      {"engine/novelty_metrics", &PhaseTimes::estimation_ns},
      {"engine/evaluate", &PhaseTimes::evaluation_ns},
      {"engine/checkpoint_serialize", &PhaseTimes::checkpoint_ns},
      {"engine/checkpoint_write", &PhaseTimes::checkpoint_ns}};
  PhaseTimes spans;
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    for (const obs::SpanEvent& event : thread.events) {
      auto it = bucket_of.find(event.name);
      if (it != bucket_of.end()) spans.*(it->second) += event.duration_ns;
    }
  }
  EXPECT_EQ(r.times.optimization_ns, spans.optimization_ns);
  EXPECT_EQ(r.times.estimation_ns, spans.estimation_ns);
  EXPECT_EQ(r.times.evaluation_ns, spans.evaluation_ns);
  EXPECT_EQ(r.times.checkpoint_ns, spans.checkpoint_ns);
  EXPECT_GT(r.times.optimization_ns, 0u);
  EXPECT_GT(r.times.estimation_ns, 0u);
  EXPECT_GT(r.times.evaluation_ns, 0u);
  EXPECT_GT(r.times.checkpoint_ns, 0u);

  // A cleared record and metrics snapshot render as a runtime section with
  // empty times, as the benchmark's report digest relies on.
  r.times.Clear();
  r.metrics.values.clear();
  EXPECT_NE(
      RunReportJson(dataset, r).find("\n  \"runtime\": {\"times\": {}},\n"),
      std::string::npos);
}

TEST(EngineTest, SelectActionSpansNestClusteringAndCrossing) {
  // engine/cluster and engine/apply_operation split the select phase in the
  // trace without a PhaseTimes bucket: one crossing per step, one
  // clustering per step (two for the Q-learning frameworks, which also
  // cluster the next state), each inside that step's engine/select_action.
  const std::string trace =
      ::testing::TempDir() + "/fastft_select_spans_trace.json";
  for (RlFramework framework : {RlFramework::kActorCritic, RlFramework::kDqn}) {
    SCOPED_TRACE(RlFrameworkName(framework));
    EngineConfig cfg = FastConfig();
    cfg.framework = framework;
    cfg.trace_path = trace;
    const EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
    const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
    std::remove(trace.c_str());
    ASSERT_EQ(snapshot.TotalDropped(), 0);
    std::vector<obs::SpanEvent> selects;
    std::map<std::string, std::vector<obs::SpanEvent>> inner;
    for (const obs::ThreadTrace& thread : snapshot.threads) {
      for (const obs::SpanEvent& event : thread.events) {
        const std::string name = event.name;
        if (name == "engine/select_action") selects.push_back(event);
        if (name == "engine/cluster" || name == "engine/apply_operation") {
          inner[name].push_back(event);
        }
      }
    }
    const size_t steps = static_cast<size_t>(r.total_steps);
    const size_t clusterings =
        framework == RlFramework::kActorCritic ? steps : 2 * steps;
    EXPECT_EQ(selects.size(), steps);
    EXPECT_EQ(inner["engine/apply_operation"].size(), steps);
    EXPECT_EQ(inner["engine/cluster"].size(), clusterings);
    for (const auto& [name, events] : inner) {
      for (const obs::SpanEvent& event : events) {
        bool nested = false;
        for (const obs::SpanEvent& select : selects) {
          nested |= event.start_ns >= select.start_ns &&
                    event.start_ns + event.duration_ns <=
                        select.start_ns + select.duration_ns;
        }
        EXPECT_TRUE(nested) << name << " outside engine/select_action";
      }
    }
  }
}

TEST(EngineTest, TrainingSpansNestInColdStartAndFinetune) {
  // engine/train_predictor and engine/train_novelty split the training
  // phases in the trace without a PhaseTimes bucket: one per model Fit
  // inside engine/coldstart_train, one per pass inside engine/finetune.
  const std::string trace =
      ::testing::TempDir() + "/fastft_train_spans_trace.json";
  EngineConfig cfg = FastConfig();
  cfg.trace_path = trace;
  FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  std::remove(trace.c_str());
  ASSERT_EQ(snapshot.TotalDropped(), 0);
  std::map<std::string, std::vector<obs::SpanEvent>> spans;
  for (const obs::ThreadTrace& thread : snapshot.threads) {
    for (const obs::SpanEvent& event : thread.events) {
      spans[event.name].push_back(event);
    }
  }
  const std::vector<obs::SpanEvent>& coldstarts =
      spans["engine/coldstart_train"];
  const std::vector<obs::SpanEvent>& finetunes = spans["engine/finetune"];
  ASSERT_EQ(coldstarts.size(), 1u);
  ASSERT_GE(finetunes.size(), 1u);
  const size_t passes =
      coldstarts.size() +
      finetunes.size() * static_cast<size_t>(EngineConfig::kFinetuneEpochs);
  for (const char* name : {"engine/train_predictor", "engine/train_novelty"}) {
    EXPECT_EQ(spans[name].size(), passes) << name;
    for (const obs::SpanEvent& event : spans[name]) {
      bool nested = false;
      for (const auto* phases : {&coldstarts, &finetunes}) {
        for (const obs::SpanEvent& phase : *phases) {
          nested |= event.start_ns >= phase.start_ns &&
                    event.start_ns + event.duration_ns <=
                        phase.start_ns + phase.duration_ns;
        }
      }
      EXPECT_TRUE(nested) << name << " outside the training phases";
    }
  }
}

TEST(EngineTest, NoveltyMetricsCollectedOnDemand) {
  EngineConfig cfg = FastConfig();
  cfg.collect_novelty_metrics = true;
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  bool any_distance = false;
  int last_unseen = 0;
  for (const StepTrace& t : r.trace) {
    any_distance |= (t.novelty_distance > 0.0);
    EXPECT_GE(t.unseen_cumulative, last_unseen);  // monotone counter
    last_unseen = t.unseen_cumulative;
  }
  EXPECT_TRUE(any_distance);
  EXPECT_GT(last_unseen, 0);
}

TEST(EngineTest, TraceNamesGeneratedFeatures) {
  EngineResult r = FastFtEngine(FastConfig()).Run(SmallDataset()).ValueOrDie();
  bool any_named = false;
  for (const StepTrace& t : r.trace) any_named |= !t.top_new_feature.empty();
  EXPECT_TRUE(any_named);
}

class FrameworkTest : public testing::TestWithParam<RlFramework> {};

TEST_P(FrameworkTest, AllRlFrameworksRun) {
  EngineConfig cfg = FastConfig(33);
  cfg.episodes = 3;
  cfg.framework = GetParam();
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_EQ(r.total_steps, 3 * 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllFrameworks, FrameworkTest,
    testing::Values(RlFramework::kActorCritic, RlFramework::kDqn,
                    RlFramework::kDoubleDqn, RlFramework::kDuelingDqn,
                    RlFramework::kDuelingDoubleDqn));

class EngineBackboneTest : public testing::TestWithParam<nn::Backbone> {};

TEST_P(EngineBackboneTest, AllSequenceBackbonesRun) {
  EngineConfig cfg = FastConfig(44);
  cfg.episodes = 4;
  cfg.backbone = GetParam();
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, EngineBackboneTest,
                         testing::Values(nn::Backbone::kLstm,
                                         nn::Backbone::kRnn,
                                         nn::Backbone::kTransformer));

TEST(EngineTest, RegressionTaskRuns) {
  SyntheticSpec spec;
  spec.samples = 130;
  spec.features = 6;
  Dataset ds = MakeRegression(spec);
  EngineResult r = FastFtEngine(FastConfig(55)).Run(ds).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_TRUE(r.best_dataset.task == TaskType::kRegression);
}

TEST(EngineTest, DetectionTaskRuns) {
  SyntheticSpec spec;
  spec.samples = 200;
  spec.features = 6;
  spec.anomaly_rate = 0.12;
  Dataset ds = MakeDetection(spec);
  EngineResult r = FastFtEngine(FastConfig(66)).Run(ds).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
}

TEST(EngineTest, ZeroThresholdsSuppressTriggers) {
  // α = β = 0: after cold start the engine must never call downstream.
  EngineConfig cfg = FastConfig(77);
  cfg.alpha_percentile = 0.0;
  cfg.beta_percentile = 0.0;
  cfg.episodes = 6;
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  for (const StepTrace& t : r.trace) {
    if (t.episode >= cfg.cold_start_episodes) {
      EXPECT_FALSE(t.downstream_evaluated);
    }
  }
}

TEST(EngineTest, DegenerateDatasetSurfacesAsStatusNotZeroScore) {
  // Two rows across two folds means the evaluator skips every fold and
  // returns NaN (never a fake 0.0); the engine has no baseline anchor and
  // must refuse the run with an explanatory Status instead of reporting a
  // zero base score.
  Dataset tiny;
  tiny.name = "tiny";
  tiny.task = TaskType::kClassification;
  Status st = tiny.features.AddColumn("a", {0.25, 0.75});
  st = tiny.features.AddColumn("b", {1.0, -1.0});
  tiny.labels = {0, 1};
  ASSERT_TRUE(tiny.Validate().ok());
  Result<EngineResult> run = FastFtEngine(FastConfig()).Run(tiny);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("fold"), std::string::npos);
}

TEST(EngineTest, NegativeThreadCountRejected) {
  EngineConfig cfg = FastConfig();
  cfg.num_threads = -1;
  Result<EngineResult> run = FastFtEngine(cfg).Run(SmallDataset());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --- Golden behaviour pin -------------------------------------------------
//
// Digests of complete runs under the configurations that reach every phase
// of Run(): cold start, triggers, finetune, the health ladder, the Fig. 14
// sweep, checkpoint serialization and the record stream. A restructuring of
// the engine loop must leave every digest unchanged; a deliberate behaviour
// change re-pins them (print the actual values from a failing run).

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// RunReportJson minus the sections that vary between runs of one config —
// the runtime section (wall-clock times, pool counters, latency histograms),
// the process metrics delta and the prefix-cache counters, the same sections
// tools/check_crash.sh treats as volatile. Each of them is a single line of
// the report.
std::string StableReport(const Dataset& ds, const EngineResult& r) {
  const std::string report = RunReportJson(ds, r);
  std::string out;
  size_t start = 0;
  while (start < report.size()) {
    size_t end = report.find('\n', start);
    if (end == std::string::npos) end = report.size();
    const std::string line = report.substr(start, end - start);
    if (line.rfind("  \"runtime\":", 0) != 0 &&
        line.rfind("  \"metrics\":", 0) != 0 &&
        line.rfind("  \"estimation_cache\":", 0) != 0) {
      out += line;
      out += '\n';
    }
    start = end + 1;
  }
  return out;
}

uint64_t ReportDigest(const EngineConfig& cfg) {
  const Dataset ds = SmallDataset();
  EngineResult r = FastFtEngine(cfg).Run(ds).ValueOrDie();
  return Fnv1a(StableReport(ds, r));
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(common::ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(EngineGoldenTest, RunDigestsArePinned) {
  const Dataset ds = SmallDataset();

  // Paper-default actor-critic with checkpoint and flight recorder on.
  {
    const std::string dir = testing::TempDir() + "/engine_golden";
    EngineConfig cfg = FastConfig();
    cfg.checkpoint_path = dir + "/fastft.ckpt";
    cfg.record_path = dir + "/fastft.ffrc";
    EngineResult r = FastFtEngine(cfg).Run(ds).ValueOrDie();
    const uint64_t report = Fnv1a(StableReport(ds, r));
    const std::string envelope = ReadAll(cfg.checkpoint_path);
    const uint32_t ckpt_crc = common::Crc32(envelope.data(), envelope.size());
    const uint64_t record = Fnv1a(ReadAll(cfg.record_path));
    EXPECT_EQ(report, 0x999dbdd5ec444711ull) << Hex(report);
    EXPECT_EQ(ckpt_crc, 0x73baf6f3u) << Hex(ckpt_crc);
    EXPECT_EQ(record, 0x4013ce43e033bb70ull) << Hex(record);
  }
  {
    EngineConfig cfg = FastConfig();
    cfg.framework = RlFramework::kDqn;
    const uint64_t digest = ReportDigest(cfg);
    EXPECT_EQ(digest, 0x0afdfc1bb8b6de68ull) << "kDqn " << Hex(digest);
  }
  {
    EngineConfig cfg = FastConfig();
    cfg.use_performance_predictor = false;
    const uint64_t digest = ReportDigest(cfg);
    EXPECT_EQ(digest, 0xdf4d5f0c37fafafaull) << "-PP " << Hex(digest);
  }
  {
    // Predict() always faults: the predictor is quarantined at its first
    // warm-phase prediction and re-armed by a healthy finetune probe.
    ScopedFaultInjection inject(2, {{"predictor/predict", 1.0}});
    EngineConfig cfg = FastConfig();
    cfg.episodes = 8;
    cfg.finetune_every_episodes = 1;
    EngineResult r = FastFtEngine(cfg).Run(ds).ValueOrDie();
    EXPECT_GE(r.health.predictor.quarantines, 1);
    EXPECT_GE(r.health.predictor.recoveries, 1);
    const uint64_t digest = Fnv1a(StableReport(ds, r));
    EXPECT_EQ(digest, 0xae1e61a973928595ull) << "fault " << Hex(digest);
  }
  {
    // The report omits the Fig. 14 columns, so they get a digest of their
    // own.
    EngineConfig cfg = FastConfig();
    cfg.collect_novelty_metrics = true;
    EngineResult r = FastFtEngine(cfg).Run(ds).ValueOrDie();
    const uint64_t digest = Fnv1a(StableReport(ds, r));
    EXPECT_EQ(digest, 0x999dbdd5ec444711ull)
        << "novelty metrics " << Hex(digest);
    common::BinaryWriter fig14;
    for (const StepTrace& t : r.trace) {
      fig14.WriteDouble(t.novelty_distance);
      fig14.WriteI32(t.unseen_cumulative);
    }
    const uint64_t metrics = Fnv1a(fig14.buffer());
    EXPECT_EQ(metrics, 0x04dc0c76a351dc3bull)
        << "Fig. 14 columns " << Hex(metrics);
  }
}

// --- Downstream-evaluation memo ----------------------------------------------

// FASTFT^-PP at the engine's smallest feature budget (originals + 16), the
// shape of the eval_bound benchmark: every generating step is evaluated,
// and the full budget evicts whole steps' columns, so sets repeat.
EngineConfig EvalBoundConfig() {
  EngineConfig cfg;
  cfg.use_performance_predictor = false;
  cfg.feature_space.max_features = 0;
  cfg.episodes = 4;
  cfg.steps_per_episode = 6;
  cfg.cold_start_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 4;
  cfg.seed = 99;
  return cfg;
}

Dataset EvalBoundDataset() {
  SyntheticSpec spec;
  spec.samples = 140;
  spec.features = 8;
  spec.seed = 50;
  return MakeClassification(spec);
}

TEST(EvaluationMemoTest, EvalBoundRunAnswersRepeatsFromTheMemo) {
  const Dataset ds = EvalBoundDataset();
  EngineResult r = FastFtEngine(EvalBoundConfig()).Run(ds).ValueOrDie();
  const int64_t hits = r.metrics.CounterValue("evaluator.memo_hits");
  EXPECT_GT(hits, 0);
  // A hit is a downstream evaluation (Table II's count) without a fit.
  EXPECT_EQ(r.metrics.CounterValue("evaluator.evaluations") + hits,
            r.downstream_evaluations);
  // Pinned before the memo existed: it changes no output.
  const uint64_t digest = Fnv1a(StableReport(ds, r));
  EXPECT_EQ(digest, 0x25d9c2d34241cabdull) << Hex(digest);
}

TEST(EvaluationMemoTest, HitsStillPassTheEvaluatorFaultPoint) {
  ScopedFaultInjection inject(4, {{"evaluator/evaluate", 1.0}});
  const Dataset ds = EvalBoundDataset();
  EngineResult r = FastFtEngine(EvalBoundConfig()).Run(ds).ValueOrDie();
  EXPECT_GT(r.metrics.CounterValue("evaluator.memo_hits"), 0);
  // Every downstream evaluation but the baseline's faulted, hits included.
  EXPECT_EQ(r.health.evaluator_faults, r.downstream_evaluations - 1);
  const uint64_t digest = Fnv1a(StableReport(ds, r));
  EXPECT_EQ(digest, 0xa649641e9184e5b6ull) << Hex(digest);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(EvaluationMemoTest, KeyFollowsColumnOrder) {
  const Dataset ds = EvalBoundDataset();
  // The same two generated columns, added in opposite orders.
  auto space = [&ds](int first, int second) {
    FeatureSpace out(ds);
    Rng rng(1);
    EXPECT_EQ(out.ApplyOperation(OpType::kSquare, {first}, {}, &rng), 1);
    EXPECT_EQ(out.ApplyOperation(OpType::kSquare, {second}, {}, &rng), 1);
    return out;
  };
  const FeatureSpace ab = space(0, 1);
  const FeatureSpace ba = space(1, 0);
  EvaluatorConfig ec;
  ec.folds = 3;
  ec.forest_trees = 6;
  const Evaluator evaluator(ec);
  EvaluationMemo memo;
  std::optional<Dataset> candidate;
  const double ab_score = memo.Score(ab, evaluator, &candidate);
  ASSERT_TRUE(candidate.has_value());
  candidate.reset();
  const double ba_score = memo.Score(ba, evaluator, &candidate);
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(memo.hits(), 0);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(Bits(ba_score), Bits(evaluator.Evaluate(ba.ToDataset())));

  // The same set built again is a hit with the same bits, and no dataset
  // is built for it.
  candidate.reset();
  EXPECT_EQ(Bits(memo.Score(space(0, 1), evaluator, &candidate)),
            Bits(ab_score));
  EXPECT_FALSE(candidate.has_value());
  EXPECT_EQ(memo.hits(), 1);
}

TEST(EvaluationMemoTest, StoresNaNButNotScoresPastTheDeadline) {
  const Dataset ds = EvalBoundDataset();
  const FeatureSpace space(ds);
  std::optional<Dataset> candidate;

  // Every fold skipped on an expired deadline: not deterministic, so not
  // stored.
  common::DeadlineToken deadline;
  deadline.Cancel();
  EvaluatorConfig late;
  late.deadline = &deadline;
  EvaluationMemo memo;
  EXPECT_TRUE(std::isnan(memo.Score(space, Evaluator(late), &candidate)));
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_TRUE(std::isnan(memo.Score(space, Evaluator(late), &candidate)));
  EXPECT_EQ(memo.hits(), 0);

  // A NaN from an input too small for its folds (two rows, two folds: one
  // training row each) is the score: stored.
  Dataset tiny;
  tiny.name = "tiny";
  ASSERT_TRUE(tiny.features.AddColumn("a", {0.25, 0.75}).ok());
  ASSERT_TRUE(tiny.features.AddColumn("b", {1.0, -1.0}).ok());
  tiny.labels = {0, 1};
  const FeatureSpace tiny_space(tiny);
  EvaluatorConfig two_folds;
  two_folds.folds = 2;
  const Evaluator degenerate(two_folds);
  EvaluationMemo nan_memo;
  EXPECT_TRUE(std::isnan(nan_memo.Score(tiny_space, degenerate, &candidate)));
  EXPECT_EQ(nan_memo.size(), 1u);
  EXPECT_TRUE(std::isnan(nan_memo.Score(tiny_space, degenerate, &candidate)));
  EXPECT_EQ(nan_memo.hits(), 1);
}

TEST(EngineTest, RlFrameworkNames) {
  EXPECT_STREQ(RlFrameworkName(RlFramework::kActorCritic), "ActorCritic");
  EXPECT_STREQ(RlFrameworkName(RlFramework::kDuelingDoubleDqn),
               "DuelingDDQN");
}

}  // namespace
}  // namespace fastft
