// Tests for k-fold generation and split materialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/split.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

Dataset SmallClassification() {
  SyntheticSpec spec;
  spec.samples = 100;
  spec.features = 5;
  spec.classes = 3;
  spec.seed = 5;
  return MakeClassification(spec);
}

TEST(SplitTest, TestFractionApproximate) {
  Dataset ds = SmallClassification();
  for (const TrainTestIndices& fold : KFoldSplit(ds, 5, 42)) {
    EXPECT_NEAR(static_cast<double>(fold.test.size()) / ds.NumRows(), 0.2,
                0.03);
  }
}

TEST(SplitTest, StratificationKeepsAllClassesInTrain) {
  Dataset ds = SmallClassification();
  for (const TrainTestIndices& fold : KFoldSplit(ds, 3, 7)) {
    std::set<int> train_classes, test_classes;
    for (int i : fold.train) train_classes.insert((int)ds.labels[i]);
    for (int i : fold.test) test_classes.insert((int)ds.labels[i]);
    EXPECT_EQ(train_classes.size(), 3u);
    EXPECT_EQ(test_classes.size(), 3u);
  }
}

TEST(SplitTest, DeterministicGivenSeed) {
  Dataset ds = SmallClassification();
  std::vector<TrainTestIndices> a = KFoldSplit(ds, 4, 99);
  std::vector<TrainTestIndices> b = KFoldSplit(ds, 4, 99);
  std::vector<TrainTestIndices> c = KFoldSplit(ds, 4, 100);
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].train, b[k].train);
    EXPECT_EQ(a[k].test, b[k].test);
  }
  EXPECT_NE(a[0].test, c[0].test);
}

class KFoldParamTest : public testing::TestWithParam<int> {};

TEST_P(KFoldParamTest, FoldsPartitionRows) {
  const int folds = GetParam();
  Dataset ds = SmallClassification();
  auto splits = KFoldSplit(ds, folds, 31);
  ASSERT_EQ(static_cast<int>(splits.size()), folds);
  std::set<int> covered;
  for (const auto& split : splits) {
    EXPECT_EQ(static_cast<int>(split.train.size() + split.test.size()),
              ds.NumRows());
    for (int t : split.test) {
      EXPECT_EQ(covered.count(t), 0u) << "row in two test folds";
      covered.insert(t);
    }
    // Train and test disjoint within a fold.
    std::set<int> train(split.train.begin(), split.train.end());
    for (int t : split.test) EXPECT_EQ(train.count(t), 0u);
  }
  EXPECT_EQ(static_cast<int>(covered.size()), ds.NumRows());
}

INSTANTIATE_TEST_SUITE_P(Folds, KFoldParamTest, testing::Values(2, 3, 5, 10));

TEST(SplitTest, RegressionSplitWorks) {
  SyntheticSpec spec;
  spec.samples = 60;
  spec.features = 4;
  Dataset ds = MakeRegression(spec);
  for (const TrainTestIndices& fold : KFoldSplit(ds, 4, 1)) {
    EXPECT_GT(fold.test.size(), 0u);
    EXPECT_GT(fold.train.size(), fold.test.size());
    // Train rows come out ascending: the evaluator's presort views rely on
    // it.
    EXPECT_TRUE(std::is_sorted(fold.train.begin(), fold.train.end()));
  }
}

}  // namespace
}  // namespace fastft
