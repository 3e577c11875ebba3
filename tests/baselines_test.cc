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

TEST(BaselineFactoryTest, TenNamesInPaperOrder) {
  const auto& names = BaselineNames();
  ASSERT_EQ(names.size(), 10u);
  EXPECT_EQ(names.front(), "RFG");
  EXPECT_EQ(names.back(), "GRFG");
}

TEST(BaselineFactoryTest, UnknownNameIsNull) {
  EXPECT_EQ(MakeBaseline("NotAMethod", FastConfig()), nullptr);
}

class BaselineParamTest : public testing::TestWithParam<std::string> {};

TEST_P(BaselineParamTest, RunsOnClassification) {
  auto baseline = MakeBaseline(GetParam(), FastConfig());
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->name(), GetParam());
  BaselineResult r = baseline->Run(SmallDataset());
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
  auto baseline = MakeBaseline(GetParam(), FastConfig(11));
  BaselineResult r = baseline->Run(ds);
  EXPECT_GE(r.score, 0.0);
  EXPECT_TRUE(r.best_dataset.Validate().ok());
}

TEST_P(BaselineParamTest, DeterministicGivenSeed) {
  auto a = MakeBaseline(GetParam(), FastConfig(42));
  auto b = MakeBaseline(GetParam(), FastConfig(42));
  Dataset ds = SmallDataset();
  EXPECT_DOUBLE_EQ(a->Run(ds).score, b->Run(ds).score);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineParamTest,
                         testing::ValuesIn(BaselineNames()));

TEST(BaselineBehaviorTest, SearchMethodsNeverBelowBase) {
  // Methods that keep the best seen dataset can never report below base.
  for (const char* name : {"RFG", "AFT", "TTG", "OpenFE", "CAAFE", "GRFG"}) {
    auto baseline = MakeBaseline(name, FastConfig(13));
    BaselineResult r = baseline->Run(SmallDataset());
    EXPECT_GE(r.score, r.base_score) << name;
  }
}

TEST(BaselineBehaviorTest, LdaReducesDimensionality) {
  auto baseline = MakeBaseline("LDA", FastConfig());
  Dataset ds = SmallDataset();
  BaselineResult r = baseline->Run(ds);
  EXPECT_LT(r.best_dataset.NumFeatures(), ds.NumFeatures());
}

TEST(BaselineBehaviorTest, ErgExpandsThenReduces) {
  auto baseline = MakeBaseline("ERG", FastConfig());
  BaselineConfig cfg = FastConfig();
  BaselineResult r = baseline->Run(SmallDataset());
  EXPECT_LE(r.best_dataset.NumFeatures(), cfg.feature_budget);
  EXPECT_GT(r.best_dataset.NumFeatures(), SmallDataset().NumFeatures());
}

TEST(BaselineBehaviorTest, CaafeLatencyDominatesRuntime) {
  BaselineConfig slow = FastConfig();
  slow.caafe_llm_latency = 0.05;
  BaselineConfig fast = FastConfig();
  fast.caafe_llm_latency = 0.0;
  Dataset ds = SmallDataset();
  double t_slow = MakeBaseline("CAAFE", slow)->Run(ds).runtime_seconds;
  double t_fast = MakeBaseline("CAAFE", fast)->Run(ds).runtime_seconds;
  EXPECT_GT(t_slow, t_fast + 0.2);  // 5 calls × 0.05s
}

TEST(BaselineBehaviorTest, GrfgEvaluatesEveryGeneratingStep) {
  auto baseline = MakeBaseline("GRFG", FastConfig());
  BaselineResult r = baseline->Run(SmallDataset());
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
    BaselineResult r = MakeBaseline(name, FastConfig(17))->Run(ds);
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
    const BaselineResult c = MakeBaseline("DIFER", cfg)->Run(SmallDataset());
    EXPECT_BITS(0x3fe6cbd323989ff0, c.base_score);
    EXPECT_BITS(0x3fe79ff509ece463, c.score);

    cfg = FastConfig(11);
    cfg.evaluator.num_threads = threads;
    const BaselineResult r = MakeBaseline("DIFER", cfg)->Run(regression);
    EXPECT_BITS(0x3fb755eef0792178, r.base_score);
    EXPECT_BITS(0x3fc4b1ecf0c1b96a, r.score);
  }
}

}  // namespace
}  // namespace fastft
