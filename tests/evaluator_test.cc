// Tests for the downstream-task evaluator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

#include "data/synthetic.h"
#include "ml/evaluator.h"

namespace fastft {
namespace {

Dataset Classification(int n = 200, uint64_t seed = 9) {
  SyntheticSpec spec;
  spec.samples = n;
  spec.features = 8;
  spec.seed = seed;
  return MakeClassification(spec);
}

TEST(EvaluatorTest, ScoreInUnitInterval) {
  Evaluator evaluator;
  double score = evaluator.Evaluate(Classification());
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(EvaluatorTest, BetterThanChanceOnLearnableData) {
  Evaluator evaluator;
  EXPECT_GT(evaluator.Evaluate(Classification(400)), 0.55);
}

TEST(EvaluatorTest, DeterministicGivenSeed) {
  EvaluatorConfig ec;
  ec.seed = 77;
  Evaluator a(ec), b(ec);
  Dataset ds = Classification();
  EXPECT_DOUBLE_EQ(a.Evaluate(ds), b.Evaluate(ds));
}

TEST(EvaluatorTest, CountsEvaluations) {
  Evaluator evaluator;
  Dataset ds = Classification();
  EXPECT_EQ(evaluator.evaluation_count(), 0);
  evaluator.Evaluate(ds);
  evaluator.Evaluate(ds);
  EXPECT_EQ(evaluator.evaluation_count(), 2);
}

TEST(EvaluatorTest, RegressionUsesRaeByDefault) {
  SyntheticSpec spec;
  spec.samples = 250;
  spec.features = 6;
  Dataset ds = MakeRegression(spec);
  Evaluator evaluator;
  double score = evaluator.Evaluate(ds);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(EvaluatorTest, DetectionAucBetterThanChance) {
  SyntheticSpec spec;
  spec.samples = 400;
  spec.features = 6;
  spec.anomaly_rate = 0.15;
  Dataset ds = MakeDetection(spec);
  Evaluator evaluator;
  EXPECT_GT(evaluator.Evaluate(ds), 0.5);
}

TEST(EvaluatorTest, ExplicitMetricOverride) {
  Evaluator evaluator;
  Dataset ds = Classification();
  double acc = evaluator.Evaluate(ds, Metric::kAccuracy);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(EvaluatorTest, FeatureImportanceMatchesFeatureCount) {
  Evaluator evaluator;
  Dataset ds = Classification();
  std::vector<double> importance = evaluator.FeatureImportance(ds);
  EXPECT_EQ(static_cast<int>(importance.size()), ds.NumFeatures());
  double sum = 0;
  for (double v : importance) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

Dataset TinyTwoRowDataset() {
  Dataset ds;
  ds.name = "tiny";
  ds.task = TaskType::kClassification;
  Status st = ds.features.AddColumn("a", {0.25, 0.75});
  st = ds.features.AddColumn("b", {1.0, -1.0});
  ds.labels = {0, 1};
  return ds;
}

TEST(EvaluatorTest, ReturnsNaNWhenEveryFoldIsSkipped) {
  // Two rows across two folds leaves every fold with a single training row,
  // so every fold is skipped. The old code silently returned 0.0 — a value
  // indistinguishable from a legitimate worst-case score; now the degenerate
  // case is a NaN sentinel the caller can isfinite-check.
  EvaluatorConfig ec;
  ec.folds = 2;
  Evaluator evaluator(ec);
  double score = evaluator.Evaluate(TinyTwoRowDataset());
  EXPECT_TRUE(std::isnan(score));
  // The call still counts as an evaluation attempt.
  EXPECT_EQ(evaluator.evaluation_count(), 1);
}

TEST(EvaluatorTest, NormalScoresStayFinite) {
  Evaluator evaluator;
  EXPECT_TRUE(std::isfinite(evaluator.Evaluate(Classification())));
}

// --- Pinned scores -----------------------------------------------------------
//
// Exact IEEE-754 bits of Evaluate on inputs that reach every branch of the
// fold loop: 2- and 3-class, regression and detection labels, an explicit
// AUC metric, discrete columns with many ties and mixed ±0.0, pool fan-out
// of folds and trees, partially skipped folds, and the non-forest path.
// Any change to how a fold's training data reaches the model that moves a
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

/// Standard-normal-ish columns rounded to integers: a handful of distinct
/// values per column, and every zero at an odd row stored as -0.0.
Dataset Discretized() {
  SyntheticSpec spec;
  spec.samples = 240;
  spec.features = 6;
  spec.classes = 3;
  spec.seed = 23;
  Dataset ds = MakeClassification(spec);
  for (int c = 0; c < ds.NumFeatures(); ++c) {
    std::vector<double>& col = ds.features.MutableCol(c);
    for (size_t r = 0; r < col.size(); ++r) {
      col[r] = std::round(col[r]);
      if (col[r] == 0.0) col[r] = r % 2 == 1 ? -0.0 : 0.0;
    }
  }
  return ds;
}

EvaluatorConfig PinConfig(int folds, int trees, uint64_t seed) {
  EvaluatorConfig ec;
  ec.folds = folds;
  ec.forest_trees = trees;
  ec.seed = seed;
  return ec;
}

TEST(EvaluatorTest, ForestScoresUnchanged) {
  SyntheticSpec spec;
  spec.samples = 300;
  spec.features = 10;
  spec.seed = 11;
  const Dataset binary = MakeClassification(spec);
  const Evaluator forest(PinConfig(3, 8, 5));
  EXPECT_BITS(0x3fe7a732a5c730b0, forest.Evaluate(binary));
  EXPECT_BITS(0x3fea1d97f54642d3, forest.Evaluate(binary, Metric::kAuc));

  // Folds on the pool: the same bits.
  EvaluatorConfig pooled = PinConfig(3, 8, 5);
  pooled.num_threads = 3;
  EXPECT_BITS(0x3fe7a732a5c730b0, Evaluator(pooled).Evaluate(binary));

  spec.samples = 240;
  spec.features = 7;
  spec.classes = 3;
  spec.seed = 12;
  EXPECT_BITS(0x3fe53519b878e272,
              Evaluator(PinConfig(5, 6, 6)).Evaluate(MakeClassification(spec)));

  spec.samples = 200;
  spec.features = 9;
  spec.seed = 13;
  EXPECT_BITS(0x3fc76e634004bb49,
              Evaluator(PinConfig(4, 10, 7)).Evaluate(MakeRegression(spec)));

  spec.samples = 300;
  spec.features = 8;
  spec.anomaly_rate = 0.15;
  spec.seed = 14;
  EXPECT_BITS(0x3fe871ede124118b,
              Evaluator(PinConfig(3, 8, 8)).Evaluate(MakeDetection(spec)));

  const Dataset discrete = Discretized();
  EXPECT_BITS(0x3fe276dfebf04095,
              Evaluator(PinConfig(4, 12, 9)).Evaluate(discrete));

  // Five folds over three rows: the last two folds have no test row and are
  // skipped; the other three fit on two rows each.
  Dataset tiny;
  tiny.name = "tiny3";
  ASSERT_TRUE(tiny.features.AddColumn("a", {0.5, -0.0, 2.0}).ok());
  ASSERT_TRUE(tiny.features.AddColumn("b", {1.0, 1.0, -3.0}).ok());
  tiny.labels = {0, 1, 0};
  EXPECT_BITS(0x3fd5555555555555,
              Evaluator(PinConfig(5, 4, 10)).Evaluate(tiny));

  // The non-forest path.
  EvaluatorConfig linear = PinConfig(3, 8, 5);
  linear.model = ModelKind::kLogisticRegression;
  EXPECT_BITS(0x3fe78e5e2e8ab99f, Evaluator(linear).Evaluate(binary));
}

class ModelKindTest : public testing::TestWithParam<ModelKind> {};

TEST_P(ModelKindTest, AllModelFamiliesEvaluate) {
  EvaluatorConfig ec;
  ec.model = GetParam();
  ec.folds = 2;
  Evaluator evaluator(ec);
  double score = evaluator.Evaluate(Classification(150));
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ModelKindTest,
    testing::Values(ModelKind::kRandomForest, ModelKind::kDecisionTree,
                    ModelKind::kGradientBoosting,
                    ModelKind::kLogisticRegression, ModelKind::kLinearSvm,
                    ModelKind::kRidge));

TEST(ModelKindTest, RegressionCapableKinds) {
  SyntheticSpec spec;
  spec.samples = 150;
  Dataset ds = MakeRegression(spec);
  for (ModelKind kind : {ModelKind::kRandomForest, ModelKind::kDecisionTree,
                         ModelKind::kGradientBoosting, ModelKind::kRidge}) {
    EvaluatorConfig ec;
    ec.model = kind;
    ec.folds = 2;
    Evaluator evaluator(ec);
    double score = evaluator.Evaluate(ds);
    EXPECT_GE(score, 0.0) << ModelKindName(kind);
  }
}

TEST(ModelKindTest, NamesMatchPaperTable) {
  EXPECT_STREQ(ModelKindName(ModelKind::kRandomForest), "RFC");
  EXPECT_STREQ(ModelKindName(ModelKind::kGradientBoosting), "XGBC");
  EXPECT_STREQ(ModelKindName(ModelKind::kLogisticRegression), "LR");
  EXPECT_STREQ(ModelKindName(ModelKind::kLinearSvm), "SVM-C");
  EXPECT_STREQ(ModelKindName(ModelKind::kRidge), "Ridge-C");
  EXPECT_STREQ(ModelKindName(ModelKind::kDecisionTree), "DT-C");
}

}  // namespace
}  // namespace fastft
