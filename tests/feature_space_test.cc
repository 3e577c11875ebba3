// Tests for the FeatureSpace: crossing, hygiene, budget, reset.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/feature_space.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

Dataset SmallDataset(int samples = 120, int features = 6) {
  SyntheticSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.seed = 21;
  return MakeClassification(spec);
}

TEST(FeatureSpaceTest, StartsWithOriginals) {
  Dataset ds = SmallDataset();
  FeatureSpace space(ds);
  EXPECT_EQ(space.NumColumns(), ds.NumFeatures());
  EXPECT_EQ(space.NumOriginals(), ds.NumFeatures());
  EXPECT_EQ(space.NumGenerated(), 0);
  EXPECT_TRUE(IsLeaf(space.Expression(0)));
  EXPECT_EQ(space.ColumnName(0), "f0");
}

TEST(FeatureSpaceTest, UnaryCrossAddsPerHeadColumn) {
  FeatureSpace space(SmallDataset());
  Rng rng(1);
  int added = space.ApplyOperation(OpType::kSquare, {0, 1}, {}, &rng);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(space.NumGenerated(), 2);
  // Values really are squares.
  const auto& base = space.Values(0);
  const auto& squared = space.Values(space.NumOriginals());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(squared[i], base[i] * base[i], 1e-9);
  }
}

TEST(FeatureSpaceTest, BinaryCrossIsGroupWise) {
  FeatureSpace space(SmallDataset());
  Rng rng(2);
  int added = space.ApplyOperation(OpType::kAdd, {0, 1}, {2, 3}, &rng);
  EXPECT_EQ(added, 4);  // |head| × |tail|
}

TEST(FeatureSpaceTest, PerStepCapSamplesPairs) {
  FeatureSpaceConfig cfg;
  cfg.max_new_per_step = 3;
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(3);
  int added = space.ApplyOperation(OpType::kMul, {0, 1, 2}, {3, 4, 5}, &rng);
  EXPECT_LE(added, 3);
}

TEST(FeatureSpaceTest, DuplicateExpressionsRejected) {
  FeatureSpace space(SmallDataset());
  Rng rng(4);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 0);
}

TEST(FeatureSpaceTest, NumericallyIdenticalColumnsRejected) {
  FeatureSpace space(SmallDataset());
  Rng rng(5);
  // f0 + f1 == f1 + f0 numerically; the second must be rejected by value
  // hash even though the expressions differ.
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {0}, {1}, &rng), 1);
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {1}, {0}, &rng), 0);
}

TEST(FeatureSpaceTest, SelfSubAndDivSkipped) {
  FeatureSpace space(SmallDataset());
  Rng rng(6);
  // f0 - f0 is constant zero → both the pair filter and the constant filter
  // reject it.
  EXPECT_EQ(space.ApplyOperation(OpType::kSub, {0}, {0}, &rng), 0);
  EXPECT_EQ(space.ApplyOperation(OpType::kDiv, {0}, {0}, &rng), 0);
}

TEST(FeatureSpaceTest, DepthLimitBlocksDeepTrees) {
  FeatureSpaceConfig cfg;
  cfg.max_expr_depth = 2;
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(7);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
  int deep_col = space.NumColumns() - 1;
  // square(square(f0)) has depth 3 > 2.
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {deep_col}, {}, &rng), 0);
}

TEST(FeatureSpaceTest, BudgetKeepsOriginals) {
  Dataset ds = SmallDataset(100, 6);
  FeatureSpaceConfig cfg;
  cfg.max_features = 10;
  cfg.max_new_per_step = 12;
  FeatureSpace space(ds, cfg);
  Rng rng(8);
  for (int i = 0; i < 6; ++i) {
    space.ApplyOperation(OpType::kMul, {0, 1, 2}, {3, 4, 5}, &rng);
    space.ApplyOperation(OpFromIndex(i % kNumUnaryOperations), {0, 1, 2, 3},
                         {}, &rng);
  }
  EXPECT_LE(space.NumColumns(), 10);
  EXPECT_EQ(space.NumOriginals(), 6);
  for (int c = 0; c < 6; ++c) EXPECT_TRUE(IsLeaf(space.Expression(c)));
}

TEST(FeatureSpaceTest, ResetRestoresOriginals) {
  FeatureSpace space(SmallDataset());
  Rng rng(9);
  space.ApplyOperation(OpType::kSquare, {0, 1}, {}, &rng);
  EXPECT_GT(space.NumGenerated(), 0);
  space.Reset();
  EXPECT_EQ(space.NumGenerated(), 0);
  // Dedup hashes also reset: the same op can be applied again.
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
}

TEST(FeatureSpaceTest, ToDatasetSharesLabelsAndNames) {
  Dataset ds = SmallDataset();
  FeatureSpace space(ds);
  Rng rng(10);
  space.ApplyOperation(OpType::kAdd, {0}, {1}, &rng);
  Dataset out = space.ToDataset();
  EXPECT_EQ(out.labels, ds.labels);
  EXPECT_EQ(out.NumFeatures(), ds.NumFeatures() + 1);
  EXPECT_EQ(out.features.Name(out.NumFeatures() - 1), "(f0+f1)");
  EXPECT_TRUE(out.Validate().ok());
}

TEST(FeatureSpaceTest, SequenceTokensTrackGenerated) {
  FeatureSpace space(SmallDataset());
  Tokenizer tok;
  Rng rng(11);
  EXPECT_EQ(space.SequenceTokens(tok).size(), 2u);  // BOS EOS
  space.ApplyOperation(OpType::kSquare, {0}, {}, &rng);
  EXPECT_GT(space.SequenceTokens(tok).size(), 2u);
}

TEST(FeatureSpaceTest, CachedStatsMatchDirectComputation) {
  FeatureSpace space(SmallDataset());
  const Summary& s = space.ColumnSummary(2);
  Summary direct = Summarize(space.Values(2));
  EXPECT_DOUBLE_EQ(s.mean, direct.mean);
  EXPECT_DOUBLE_EQ(s.max, direct.max);
  EXPECT_EQ(space.BinnedValues(2).size(), space.Values(2).size());
  EXPECT_GE(space.LabelRelevance(2), 0.0);
}

TEST(FeatureSpaceTest, GeneratedExpressionsInOrder) {
  FeatureSpace space(SmallDataset());
  Rng rng(12);
  space.ApplyOperation(OpType::kSquare, {0}, {}, &rng);
  space.ApplyOperation(OpType::kSqrtAbs, {1}, {}, &rng);
  std::vector<ExprPtr> exprs = space.GeneratedExpressions();
  ASSERT_EQ(exprs.size(), 2u);
  EXPECT_EQ(ExprToString(exprs[0]), "square(f0)");
  EXPECT_EQ(ExprToString(exprs[1]), "sqrt(f1)");
}

TEST(FeatureSpaceTest, DedupForgetsEvictedColumnsAndOnlyThem) {
  // Six generated sums compete for three budget slots. After eviction the
  // space must accept an evicted column again, by its own expression and by
  // its values under a new expression, and still reject every survivor.
  FeatureSpaceConfig cfg;
  cfg.max_features = 9;
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(13);
  struct Sum {
    int head, tail;
    std::string name;
  };
  std::vector<Sum> sums;
  for (int h : {0, 1, 2}) {
    for (int t : {3, 4}) {
      std::string name = "(f";
      name += std::to_string(h);
      name += "+f";
      name += std::to_string(t);
      name += ")";
      sums.push_back({h, t, name});
    }
  }
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {0, 1, 2}, {3, 4}, &rng), 6);
  ASSERT_EQ(space.NumColumns(), 9);
  int evicted = 0;
  for (const Sum& sum : sums) {
    bool survived = false;
    for (int c = space.NumOriginals(); c < space.NumColumns(); ++c) {
      survived |= space.ColumnName(c) == sum.name;
    }
    evicted += !survived;
    const int expected = survived ? 0 : 1;
    FeatureSpace same_expr(space);
    EXPECT_EQ(same_expr.ApplyOperation(OpType::kAdd, {sum.head}, {sum.tail},
                                       &rng),
              expected)
        << sum.name;
    // tail + head has the same values but a new expression.
    FeatureSpace same_values(space);
    EXPECT_EQ(same_values.ApplyOperation(OpType::kAdd, {sum.tail},
                                         {sum.head}, &rng),
              expected)
        << sum.name;
  }
  EXPECT_EQ(evicted, 3);
}

TEST(FeatureSpaceTest, BudgetBelowOriginalsChecks) {
  Dataset ds = SmallDataset(50, 6);
  FeatureSpaceConfig cfg;
  cfg.max_features = 3;  // fewer than the 6 originals
  EXPECT_DEATH(FeatureSpace(ds, cfg), "budget");
}

}  // namespace
}  // namespace fastft
