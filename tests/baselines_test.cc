// Tests for the ten Table I baselines.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/baseline.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

BaselineConfig FastConfig(uint64_t seed = 7) {
  BaselineConfig cfg;
  cfg.iterations = 10;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.caafe_llm_latency = 0.005;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 60;
  return MakeClassification(spec);
}

BaselineResult RunNamed(const std::string& name, const BaselineConfig& cfg,
                        const Dataset& dataset) {
  return RunBaseline(name, cfg, dataset).ValueOrDie();
}

TEST(BaselineFactoryTest, TenNamesInPaperOrder) {
  const auto& names = BaselineNames();
  ASSERT_EQ(names.size(), 10u);
  EXPECT_EQ(names.front(), "RFG");
  EXPECT_EQ(names.back(), "GRFG");
}

TEST(BaselineFactoryTest, UnknownNameIsInvalidArgument) {
  const Result<BaselineResult> r =
      RunBaseline("NotAMethod", FastConfig(), SmallDataset());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The message lists every valid name.
  for (const std::string& name : BaselineNames()) {
    EXPECT_NE(r.status().message().find(name), std::string::npos) << name;
  }
}

class BaselineParamTest : public testing::TestWithParam<std::string> {};

TEST_P(BaselineParamTest, RunsOnClassification) {
  BaselineResult r = RunNamed(GetParam(), FastConfig(), SmallDataset());
  EXPECT_GT(r.base_score, 0.0);
  EXPECT_GT(r.score, 0.0);
  EXPECT_LE(r.score, 1.0);
  EXPECT_GT(r.downstream_evaluations, 0);
  EXPECT_GT(r.runtime_seconds, 0.0);
  EXPECT_TRUE(r.best_dataset.Validate().ok());
}

TEST_P(BaselineParamTest, RunsOnRegression) {
  SyntheticSpec spec;
  spec.samples = 110;
  spec.features = 6;
  Dataset ds = MakeRegression(spec);
  BaselineResult r = RunNamed(GetParam(), FastConfig(11), ds);
  EXPECT_GE(r.score, 0.0);
  EXPECT_TRUE(r.best_dataset.Validate().ok());
}

TEST_P(BaselineParamTest, DeterministicGivenSeed) {
  Dataset ds = SmallDataset();
  EXPECT_DOUBLE_EQ(RunNamed(GetParam(), FastConfig(42), ds).score,
                   RunNamed(GetParam(), FastConfig(42), ds).score);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineParamTest,
                         testing::ValuesIn(BaselineNames()));

TEST(BaselineBehaviorTest, SearchMethodsNeverBelowBase) {
  // Methods that keep the best seen dataset can never report below base.
  for (const char* name : {"RFG", "AFT", "TTG", "OpenFE", "CAAFE", "GRFG"}) {
    BaselineResult r = RunNamed(name, FastConfig(13), SmallDataset());
    EXPECT_GE(r.score, r.base_score) << name;
  }
}

TEST(BaselineBehaviorTest, LdaReducesDimensionality) {
  Dataset ds = SmallDataset();
  BaselineResult r = RunNamed("LDA", FastConfig(), ds);
  EXPECT_LT(r.best_dataset.NumFeatures(), ds.NumFeatures());
}

TEST(BaselineBehaviorTest, ErgExpandsThenReduces) {
  BaselineResult r = RunNamed("ERG", FastConfig(), SmallDataset());
  EXPECT_LE(r.best_dataset.NumFeatures(), kFeatureBudget);
  EXPECT_GT(r.best_dataset.NumFeatures(), SmallDataset().NumFeatures());
}

TEST(BaselineBehaviorTest, CaafeLatencyDominatesRuntime) {
  BaselineConfig slow = FastConfig();
  slow.caafe_llm_latency = 0.05;
  BaselineConfig fast = FastConfig();
  fast.caafe_llm_latency = 0.0;
  Dataset ds = SmallDataset();
  double t_slow = RunNamed("CAAFE", slow, ds).runtime_seconds;
  double t_fast = RunNamed("CAAFE", fast, ds).runtime_seconds;
  EXPECT_GT(t_slow, t_fast + 0.2);  // 5 calls × 0.05s
}

TEST(BaselineBehaviorTest, GrfgEvaluatesEveryGeneratingStep) {
  BaselineResult r = RunNamed("GRFG", FastConfig(), SmallDataset());
  // GRFG runs without evaluation components: many downstream calls.
  EXPECT_GT(r.downstream_evaluations, 5);
}

TEST(BaselineBehaviorTest, DetectionTaskSupported) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 6;
  spec.anomaly_rate = 0.15;
  Dataset ds = MakeDetection(spec);
  for (const char* name : {"RFG", "ERG", "OpenFE"}) {
    BaselineResult r = RunNamed(name, FastConfig(17), ds);
    EXPECT_GT(r.score, 0.0) << name;
  }
}

// --- Pinned DIFER bits --------------------------------------------------------
//
// Exact IEEE-754 bits of DIFER's base and final scores on one classification
// and one regression dataset, with the evaluator's folds serial and on the
// pool. DIFER scores many candidate expressions one k-fold evaluation each;
// any change to how those candidates are drawn, scored or ranked that moves a
// single bit fails here.

std::string Hex(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buffer;
}

#define EXPECT_BITS(expected, actual)                                     \
  EXPECT_EQ(Hex(std::bit_cast<double>(uint64_t{expected})), Hex(actual)) \
      << #actual

TEST(DiferGoldenBitsTest, ScoresArePinnedAtOneAndFourThreads) {
  SyntheticSpec spec;
  spec.samples = 110;
  spec.features = 6;
  const Dataset regression = MakeRegression(spec);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    BaselineConfig cfg = FastConfig(42);
    cfg.evaluator.num_threads = threads;
    const BaselineResult c = RunNamed("DIFER", cfg, SmallDataset());
    EXPECT_BITS(0x3fe6cbd323989ff0, c.base_score);
    EXPECT_BITS(0x3fe79ff509ece463, c.score);

    cfg = FastConfig(11);
    cfg.evaluator.num_threads = threads;
    const BaselineResult r = RunNamed("DIFER", cfg, regression);
    EXPECT_BITS(0x3fb755eef0792178, r.base_score);
    EXPECT_BITS(0x3fc4b1ecf0c1b96a, r.score);
  }
}

// --- Pinned bits of every method -------------------------------------------
//
// Each method's base score, final score, downstream-evaluation count and
// output width on the classification set at seed 42 and on the regression
// set at seed 11, with the evaluator's folds serial and on the pool. These
// are the equivalence oracle for changes to how the baselines are built and
// run: a change that moves one bit of any method's result fails here.

struct Golden {
  const char* name;
  uint64_t base_score;
  uint64_t score;
  int64_t downstream_evaluations;
  int num_features;
};

void ExpectGolden(const Golden& golden, const BaselineResult& r) {
  SCOPED_TRACE(golden.name);
  EXPECT_BITS(golden.base_score, r.base_score);
  EXPECT_BITS(golden.score, r.score);
  EXPECT_EQ(r.downstream_evaluations, golden.downstream_evaluations);
  EXPECT_EQ(r.best_dataset.NumFeatures(), golden.num_features);
}

// SmallDataset() at seed 42.
constexpr Golden kClassificationGolden[] = {
    {"RFG", 0x3fe6cbd323989ff0, 0x3fe6cbd323989ff0, 10, 6},
    {"ERG", 0x3fe6cbd323989ff0, 0x3fe6603d980f6604, 2, 48},
    {"LDA", 0x3fe6cbd323989ff0, 0x3fe20336d09f135f, 2, 2},
    {"AFT", 0x3fe6cbd323989ff0, 0x3fe6cbd323989ff0, 3, 6},
    {"NFS", 0x3fe6cbd323989ff0, 0x3fe6cbd323989ff0, 6, 6},
    {"TTG", 0x3fe6cbd323989ff0, 0x3fe843fb6dbc681e, 5, 12},
    {"DIFER", 0x3fe6cbd323989ff0, 0x3fe79ff509ece463, 14, 7},
    {"OpenFE", 0x3fe6cbd323989ff0, 0x3fe6cbd323989ff0, 7, 6},
    {"CAAFE", 0x3fe6cbd323989ff0, 0x3fe726354c0eef7b, 6, 8},
    {"GRFG", 0x3fe65d01d42cdba6, 0x3fe90f17a299338a, 18, 9},
};

// The 110 × 6 regression set at seed 11.
constexpr Golden kRegressionGolden[] = {
    {"RFG", 0x3fb755eef0792178, 0x3fc0d25663544f46, 9, 9},
    {"ERG", 0x3fb755eef0792178, 0x3fc5e104678cf246, 2, 48},
    {"LDA", 0x3fb755eef0792178, 0x3fc1267dcb61a2c6, 2, 2},
    {"AFT", 0x3fb755eef0792178, 0x3fb755eef0792178, 3, 6},
    {"NFS", 0x3fb755eef0792178, 0x3fb755eef0792178, 6, 6},
    {"TTG", 0x3fb755eef0792178, 0x3fc4c69361c2c9fa, 5, 17},
    {"DIFER", 0x3fb755eef0792178, 0x3fc4b1ecf0c1b96a, 14, 7},
    {"OpenFE", 0x3fb755eef0792178, 0x3fc470fb264ec522, 7, 7},
    {"CAAFE", 0x3fb755eef0792178, 0x3fc454131db7a6fc, 6, 9},
    {"GRFG", 0x3fb93e60b353e0a8, 0x3fcbf09400e70848, 18, 18},
};

TEST(BaselineGoldenBitsTest, EveryMethodIsPinnedAtOneAndFourThreads) {
  SyntheticSpec spec;
  spec.samples = 110;
  spec.features = 6;
  const Dataset classification = SmallDataset();
  const Dataset regression = MakeRegression(spec);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    for (const Golden& golden : kClassificationGolden) {
      BaselineConfig cfg = FastConfig(42);
      cfg.evaluator.num_threads = threads;
      ExpectGolden(golden, RunNamed(golden.name, cfg, classification));
    }
    for (const Golden& golden : kRegressionGolden) {
      BaselineConfig cfg = FastConfig(11);
      cfg.evaluator.num_threads = threads;
      ExpectGolden(golden, RunNamed(golden.name, cfg, regression));
    }
  }
}

}  // namespace
}  // namespace fastft
