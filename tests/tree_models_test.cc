// Tests for decision tree, random forest, and gradient boosting.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace fastft {
namespace {

// XOR-ish dataset: label depends on sign(x0 * x1) — needs depth >= 2.
void MakeXor(int n, Rows* x, std::vector<double>* y, uint64_t seed = 1) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(-1, 1);
    double b = rng.Uniform(-1, 1);
    x->push_back({a, b});
    y->push_back(a * b > 0 ? 1.0 : 0.0);
  }
}

TEST(DecisionTreeTest, FitsXorPerfectlyWithDepth) {
  Rows x;
  std::vector<double> y;
  MakeXor(300, &x, &y);
  TreeConfig tc;
  tc.max_depth = 6;
  tc.min_samples_leaf = 1;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  std::vector<double> pred = tree.Predict(x);
  EXPECT_GT(Accuracy(y, pred), 0.95);
  EXPECT_EQ(tree.num_classes(), 2);
}

TEST(DecisionTreeTest, DepthOneCannotFitXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(300, &x, &y);
  TreeConfig tc;
  tc.max_depth = 1;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  EXPECT_LT(Accuracy(y, tree.Predict(x)), 0.75);
}

TEST(DecisionTreeTest, PureNodeIsLeaf) {
  Rows x = {{0}, {1}, {2}};
  std::vector<double> y = {1, 1, 1};
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_DOUBLE_EQ(tree.Predict({{5}})[0], 1.0);
}

TEST(DecisionTreeTest, RegressionFitsStep) {
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 50 ? 1.0 : 5.0);
  }
  TreeConfig tc;
  tc.regression = true;
  tc.max_depth = 2;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  EXPECT_NEAR(tree.Predict({{10}})[0], 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({{90}})[0], 5.0, 0.2);
}

TEST(DecisionTreeTest, ImportanceConcentratesOnSplitFeature) {
  // Feature 1 fully determines the label; feature 0 is noise.
  Rng rng(4);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double signal = rng.Uniform(-1, 1);
    x.push_back({rng.Uniform(-1, 1), signal});
    y.push_back(signal > 0 ? 1.0 : 0.0);
  }
  DecisionTree tree;
  tree.Fit(x, y);
  const auto& importance = tree.FeatureImportance();
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_GT(importance[1], 0.9);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(DecisionTreeTest, ProbaSumsToOne) {
  Rows x;
  std::vector<double> y;
  MakeXor(100, &x, &y);
  DecisionTree tree;
  tree.Fit(x, y);
  std::vector<double> p = tree.PredictProba(x[0]);
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Rows x;
  std::vector<double> y;
  MakeXor(50, &x, &y);
  TreeConfig tc;
  tc.min_samples_leaf = 25;  // at most one split possible
  DecisionTree tree(tc);
  tree.Fit(x, y);  // must not crash; prediction still defined
  EXPECT_EQ(tree.Predict(x).size(), x.size());
}

TEST(RandomForestTest, BeatsSingleStumpOnXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(400, &x, &y);
  ForestConfig fc;
  fc.num_trees = 15;
  fc.max_depth = 6;
  RandomForest forest(fc);
  forest.Fit(x, y);
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.9);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Rows x;
  std::vector<double> y;
  MakeXor(150, &x, &y);
  ForestConfig fc;
  fc.seed = 5;
  RandomForest a(fc), b(fc);
  a.Fit(x, y);
  b.Fit(x, y);
  EXPECT_EQ(a.Predict(x), b.Predict(x));
}

TEST(RandomForestTest, RegressionAveragesTrees) {
  Rng rng(8);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.Uniform(-2, 2);
    x.push_back({a});
    y.push_back(3.0 * a + rng.Normal(0, 0.1));
  }
  ForestConfig fc;
  fc.regression = true;
  fc.num_trees = 10;
  RandomForest forest(fc);
  forest.Fit(x, y);
  EXPECT_GT(OneMinusRae(y, forest.Predict(x)), 0.8);
}

TEST(RandomForestTest, ScoreIsProbability) {
  Rows x;
  std::vector<double> y;
  MakeXor(150, &x, &y);
  RandomForest forest;
  forest.Fit(x, y);
  for (double s : forest.PredictScore(x)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(RandomForestTest, ImportanceNormalized) {
  Rows x;
  std::vector<double> y;
  MakeXor(200, &x, &y);
  RandomForest forest;
  forest.Fit(x, y);
  double sum = 0;
  for (double v : forest.FeatureImportance()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GradientBoostingTest, BinaryClassificationOnXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(400, &x, &y);
  BoostingConfig bc;
  bc.num_rounds = 30;
  bc.max_depth = 3;
  GradientBoosting gb(bc);
  gb.Fit(x, y);
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.85);
}

TEST(GradientBoostingTest, RegressionReducesError) {
  Rng rng(10);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 250; ++i) {
    double a = rng.Uniform(-2, 2);
    x.push_back({a});
    y.push_back(a * a + rng.Normal(0, 0.05));
  }
  BoostingConfig bc;
  bc.regression = true;
  bc.num_rounds = 25;
  GradientBoosting gb(bc);
  gb.Fit(x, y);
  EXPECT_GT(OneMinusRae(y, gb.Predict(x)), 0.7);
}

TEST(GradientBoostingTest, MulticlassOneVsRest) {
  Rng rng(12);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.Uniform(0, 3);
    x.push_back({a});
    y.push_back(std::floor(a));
  }
  GradientBoosting gb;
  gb.Fit(x, y);
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.85);
}

TEST(GradientBoostingDeathTest, RejectsInvalidClassificationLabels) {
  // static_cast<int>(label) silently truncated -1 and 0.5 onto class 0;
  // bad labels must fail loudly instead of training on garbage targets.
  Rows x = {{0.0}, {1.0}, {2.0}, {3.0}};
  GradientBoosting gb;
  EXPECT_DEATH(gb.Fit(x, {0.0, 1.0, -1.0, 1.0}), "non-negative");
  EXPECT_DEATH(gb.Fit(x, {0.0, 1.0, 0.5, 1.0}), "non-negative");
  EXPECT_DEATH(
      gb.Fit(x, {0.0, 1.0, std::numeric_limits<double>::quiet_NaN(), 1.0}),
      "non-negative");
}

TEST(GradientBoostingTest, RegressionAcceptsArbitraryTargets) {
  // The label check is classification-only: regression targets may be
  // negative or fractional.
  Rows x = {{0.0}, {1.0}, {2.0}, {3.0}};
  BoostingConfig bc;
  bc.regression = true;
  bc.num_rounds = 2;
  GradientBoosting gb(bc);
  gb.Fit(x, {-1.5, 0.25, -3.0, 2.5});
  EXPECT_EQ(gb.Predict(x).size(), 4u);
}

TEST(GradientBoostingTest, ScoresInUnitIntervalForClassification) {
  Rows x;
  std::vector<double> y;
  MakeXor(100, &x, &y);
  GradientBoosting gb;
  gb.Fit(x, y);
  for (double s : gb.PredictScore(x)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}


// --- Presort fold views ------------------------------------------------------
//
// The evaluator fits each fold from a view of one full-data presort. The
// view must equal, byte for byte, a presort built on the fold's rows.

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSamePresort(const PresortedData& actual,
                       const PresortedData& expected) {
  EXPECT_EQ(actual.num_rows(), expected.num_rows());
  EXPECT_EQ(actual.num_features(), expected.num_features());
  EXPECT_TRUE(SameBytes(actual.columns(), expected.columns()));
  EXPECT_TRUE(SameBytes(actual.order(), expected.order()));
  EXPECT_TRUE(SameBytes(actual.labels(), expected.labels()));
}

/// Integer-rounded columns (many ties) whose zeros alternate between +0.0
/// and -0.0, plus a constant column.
Dataset TiedDataset(uint64_t seed, int classes) {
  SyntheticSpec spec;
  spec.samples = 90;
  spec.features = 4;
  spec.classes = classes;
  spec.seed = seed;
  Dataset ds = MakeClassification(spec);
  for (int c = 0; c < ds.NumFeatures(); ++c) {
    std::vector<double>& col = ds.features.MutableCol(c);
    for (size_t r = 0; r < col.size(); ++r) {
      col[r] = std::round(col[r] * (c + 1));
      if (col[r] == 0.0) col[r] = r % 2 == 1 ? -0.0 : 0.0;
    }
  }
  EXPECT_TRUE(ds.features
                  .AddColumn("constant",
                             std::vector<double>(ds.NumRows(), 1.5))
                  .ok());
  return ds;
}

TEST(PresortedDataTest, FoldViewMatchesFreshPresort) {
  std::vector<Dataset> datasets;
  for (uint64_t seed : {1, 2}) {
    SyntheticSpec spec;
    spec.samples = 110;
    spec.features = 6;
    spec.seed = seed;
    datasets.push_back(MakeClassification(spec));  // 2 classes
    spec.classes = 3;
    datasets.push_back(MakeClassification(spec));
    datasets.push_back(MakeRegression(spec));
    datasets.push_back(TiedDataset(seed, 2));
    datasets.push_back(TiedDataset(seed + 10, 3));
  }
  for (size_t d = 0; d < datasets.size(); ++d) {
    SCOPED_TRACE("dataset " + std::to_string(d));
    const Dataset& ds = datasets[d];
    const PresortedData full(ds.features, ds.labels);
    const Rows all_rows = ds.features.ToRows();
    ExpectSamePresort(full, PresortedData(all_rows, ds.labels));

    std::vector<std::vector<int>> subsets;
    for (int folds : {2, 3, 4, 5}) {
      for (const TrainTestIndices& fold : KFoldSplit(ds, folds, 17 + d)) {
        subsets.push_back(fold.train);
        subsets.push_back(fold.test);
      }
    }
    Rng rng(100 + d);
    for (int k = 0; k < 6; ++k) {
      std::vector<int> rows;
      const double keep = (k + 1) / 7.0;
      for (int r = 0; r < ds.NumRows(); ++r) {
        if (rng.Uniform() < keep) rows.push_back(r);
      }
      if (rows.empty()) rows.push_back(k);
      subsets.push_back(rows);
    }
    subsets.push_back({ds.NumRows() - 1});
    std::vector<int> all(ds.NumRows());
    std::iota(all.begin(), all.end(), 0);
    subsets.push_back(all);

    for (size_t i = 0; i < subsets.size(); ++i) {
      SCOPED_TRACE("subset " + std::to_string(i));
      const std::vector<int>& rows = subsets[i];
      Rows x;
      std::vector<double> labels;
      for (int r : rows) {
        x.push_back(all_rows[r]);
        labels.push_back(ds.labels[r]);
      }
      ExpectSamePresort(PresortedData(full, rows), PresortedData(x, labels));
    }
  }
}

TEST(PresortedDataDeathTest, FoldViewRejectsUnsortedRows) {
  SyntheticSpec spec;
  spec.samples = 20;
  spec.features = 3;
  const Dataset ds = MakeClassification(spec);
  const PresortedData full(ds.features, ds.labels);
  EXPECT_DEATH(PresortedData(full, {0, 5, 3}), "ascending");
  EXPECT_DEATH(PresortedData(full, {2, 2}), "ascending");
}

// --- Golden bits -------------------------------------------------------------
//
// Exact IEEE-754 bit patterns of the downstream scores the engine consumes,
// pinned so that any change to the tree fitter (split search, tie order,
// summation order, bootstrap handling) that moves a single bit fails here.
// The shape matches the eval_bound benchmark workload: 1000 rows x 28
// features, 4 folds x 12 trees.

std::string Hex(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buffer;
}

#define EXPECT_BITS(expected, actual)                                     \
  EXPECT_EQ(Hex(std::bit_cast<double>(uint64_t{expected})), Hex(actual)) \
      << #actual

Dataset GoldenClassification() {
  SyntheticSpec spec;
  spec.samples = 1000;
  spec.features = 28;
  spec.seed = 4242;
  return MakeClassification(spec);
}

EvaluatorConfig GoldenConfig(ModelKind model) {
  EvaluatorConfig ec;
  ec.model = model;
  ec.folds = 4;
  ec.forest_trees = 12;
  ec.seed = 1234;
  return ec;
}

TEST(TreeGoldenBitsTest, RandomForestClassification) {
  const Dataset ds = GoldenClassification();
  const Evaluator evaluator(GoldenConfig(ModelKind::kRandomForest));
  EXPECT_BITS(0x3fe8677654c4eeac, evaluator.Evaluate(ds));
  EXPECT_BITS(0x3feaf938f9bf366f, evaluator.Evaluate(ds, Metric::kAuc));
}

TEST(TreeGoldenBitsTest, RandomForestRegression) {
  SyntheticSpec spec;
  spec.samples = 600;
  spec.features = 16;
  spec.seed = 4243;
  const Dataset ds = MakeRegression(spec);
  const Evaluator evaluator(GoldenConfig(ModelKind::kRandomForest));
  EXPECT_BITS(0x3fdb8a88649a75e6, evaluator.Evaluate(ds));
}

TEST(TreeGoldenBitsTest, DecisionTreeAndBoosting) {
  const Dataset ds = GoldenClassification();
  EXPECT_BITS(0x3fe889c8d94c4ba4,
              Evaluator(GoldenConfig(ModelKind::kDecisionTree)).Evaluate(ds));
  EXPECT_BITS(
      0x3fe9065560cbcd83,
      Evaluator(GoldenConfig(ModelKind::kGradientBoosting)).Evaluate(ds));
}

TEST(TreeGoldenBitsTest, FeatureImportance) {
  const Dataset ds = GoldenClassification();
  const std::vector<double> importance =
      Evaluator(GoldenConfig(ModelKind::kRandomForest)).FeatureImportance(ds);
  const uint64_t expected[] = {
      0x3fd31a8e8d24412b, 0x3fb0af00a8057a83, 0x3f92c478ae719b33,
      0x3fc269faa187c56d, 0x3fbcef44ce667d0f, 0x3f9742e45063ffde,
      0x3f813f40eda4e439, 0x3f846c84293a3b74, 0x3f83f5d9bc0ef7b7,
      0x3f8914830b355982, 0x3f918c6292e953d6, 0x3f896413089d583b,
      0x3f98edbfa11ce0e3, 0x3f872047c0947d52, 0x3f86d2eb44b755bb,
      0x3f88a29b44be18bc, 0x3f8e3c6a2b22fce4, 0x3f91a2a0ab3d2b0e,
      0x3f9796bde0e1b81a, 0x3f943435f1562a53, 0x3f9492412635a0f2,
      0x3f91899b23f209cb, 0x3f9917edb38284bf, 0x3f7b1b5749678eea,
      0x3f9243a0fc051e5f, 0x3f84af33d7100f2d, 0x3f98f801835519a8,
      0x3f8d360b5d3fb4df,
  };
  ASSERT_EQ(importance.size(), std::size(expected));
  for (size_t f = 0; f < importance.size(); ++f) {
    EXPECT_BITS(expected[f], importance[f]) << " feature " << f;
  }
}

}  // namespace
}  // namespace fastft
