// Integration tests for the FastFT engine (Algorithms 1 & 2).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/fault.h"
#include "common/fs.h"
#include "common/serial.h"
#include "core/engine.h"
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

TEST(EngineTest, TimeBucketsCoverRun) {
  FastFtEngine engine(FastConfig());
  EngineResult r = engine.Run(SmallDataset()).ValueOrDie();
  EXPECT_GT(r.times.Get("evaluation"), 0.0);
  EXPECT_GT(r.times.Get("optimization"), 0.0);
  // Estimation bucket only active once components are trained.
  EXPECT_GE(r.times.Get("estimation"), 0.0);
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
// wall-clock times, the process metrics delta and the prefix-cache counters,
// the same sections tools/check_crash.sh treats as volatile. Each of them is
// a single line of the report.
std::string StableReport(const Dataset& ds, const EngineResult& r) {
  const std::string report = RunReportJson(ds, r);
  std::string out;
  size_t start = 0;
  while (start < report.size()) {
    size_t end = report.find('\n', start);
    if (end == std::string::npos) end = report.size();
    const std::string line = report.substr(start, end - start);
    if (line.rfind("  \"times\":", 0) != 0 &&
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

TEST(EngineTest, RlFrameworkNames) {
  EXPECT_STREQ(RlFrameworkName(RlFramework::kActorCritic), "ActorCritic");
  EXPECT_STREQ(RlFrameworkName(RlFramework::kDuelingDoubleDqn),
               "DuelingDDQN");
}

}  // namespace
}  // namespace fastft
