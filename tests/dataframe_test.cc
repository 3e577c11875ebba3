// Tests for DataFrame and Dataset.

#include <gtest/gtest.h>

#include <limits>

#include "data/dataframe.h"
#include "data/dataset.h"

namespace fastft {
namespace {

DataFrame MakeFrame() {
  DataFrame f;
  EXPECT_TRUE(f.AddColumn("a", {1, 2, 3}).ok());
  EXPECT_TRUE(f.AddColumn("b", {4, 5, 6}).ok());
  return f;
}

TEST(DataFrameTest, AddColumnFixesRowCount) {
  DataFrame f = MakeFrame();
  EXPECT_EQ(f.NumRows(), 3);
  EXPECT_EQ(f.NumCols(), 2);
  Status bad = f.AddColumn("c", {1, 2});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, AccessorsAndNames) {
  DataFrame f = MakeFrame();
  EXPECT_EQ(f.Name(0), "a");
  EXPECT_EQ(f.Name(1), "b");
  EXPECT_DOUBLE_EQ(f.At(1, 1), 5.0);
  EXPECT_EQ(f.FindColumn("b"), 1);
  EXPECT_EQ(f.FindColumn("zzz"), -1);
}

TEST(DataFrameTest, RowMaterialization) {
  DataFrame f = MakeFrame();
  std::vector<double> row = f.Row(2);
  EXPECT_EQ(row, (std::vector<double>{3, 6}));
}

TEST(DataFrameTest, SetColumnValidatesShape) {
  DataFrame f = MakeFrame();
  EXPECT_TRUE(f.SetColumn(0, {9, 8, 7}).ok());
  EXPECT_DOUBLE_EQ(f.At(0, 0), 9.0);
  EXPECT_FALSE(f.SetColumn(0, {1}).ok());
  EXPECT_FALSE(f.SetColumn(5, {1, 2, 3}).ok());
}

TEST(DataFrameTest, DropColumn) {
  DataFrame f = MakeFrame();
  EXPECT_TRUE(f.DropColumn(0).ok());
  EXPECT_EQ(f.NumCols(), 1);
  EXPECT_EQ(f.Name(0), "b");
  EXPECT_FALSE(f.DropColumn(7).ok());
  EXPECT_TRUE(f.DropColumn(0).ok());
  EXPECT_EQ(f.NumRows(), 0);
  EXPECT_TRUE(f.Empty());
}

TEST(DataFrameTest, SelectColumnsReorders) {
  DataFrame f = MakeFrame();
  DataFrame g = f.SelectColumns({1, 0});
  EXPECT_EQ(g.Name(0), "b");
  EXPECT_DOUBLE_EQ(g.At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.At(0, 1), 1.0);
}

TEST(DataFrameTest, ToRowsRoundTrip) {
  DataFrame f = MakeFrame();
  auto rows = f.ToRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<double>{1, 4}));
  EXPECT_EQ(rows[2], (std::vector<double>{3, 6}));
}

Dataset MakeDataset() {
  Dataset ds;
  ds.name = "toy";
  ds.task = TaskType::kClassification;
  ds.features = MakeFrame();
  ds.labels = {0, 1, 0};
  return ds;
}

TEST(DatasetTest, ValidateAccepts) {
  EXPECT_TRUE(MakeDataset().Validate().ok());
}

TEST(DatasetTest, ValidateRejectsLabelMismatch) {
  Dataset ds = MakeDataset();
  ds.labels.pop_back();
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsNonContiguousClasses) {
  Dataset ds = MakeDataset();
  ds.labels = {0, 2, 0};  // missing class 1
  EXPECT_FALSE(ds.Validate().ok());
  ds.labels = {1, 2, 1};  // not starting at 0
  EXPECT_FALSE(ds.Validate().ok());
  ds.labels = {0.5, 1, 0};  // non-integral
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, RegressionSkipsClassChecks) {
  Dataset ds = MakeDataset();
  ds.task = TaskType::kRegression;
  ds.labels = {0.1, -3.5, 7.2};
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_EQ(ds.NumClasses(), 0);
}

TEST(DatasetTest, NumClassesCounts) {
  EXPECT_EQ(MakeDataset().NumClasses(), 2);
}

TEST(DatasetTest, WithFeaturesKeepsLabels) {
  Dataset ds = MakeDataset();
  DataFrame other;
  ASSERT_TRUE(other.AddColumn("x", {7, 8, 9}).ok());
  Dataset out = ds.WithFeatures(other);
  EXPECT_EQ(out.labels, ds.labels);
  EXPECT_EQ(out.NumFeatures(), 1);
  EXPECT_EQ(out.name, "toy");
}

TEST(DatasetTest, TaskTypeCodes) {
  EXPECT_STREQ(TaskTypeCode(TaskType::kClassification), "C");
  EXPECT_STREQ(TaskTypeCode(TaskType::kRegression), "R");
  EXPECT_STREQ(TaskTypeCode(TaskType::kDetection), "D");
}


TEST(DatasetTest, ValidateRejectsNonFiniteFeature) {
  Dataset ds = MakeDataset();
  ds.features.MutableCol(0)[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ds.Validate().ok());
  ds.features.MutableCol(0)[1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsNonFiniteLabel) {
  Dataset ds = MakeDataset();
  ds.task = TaskType::kRegression;
  ds.labels[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ds.Validate().ok());
}

}  // namespace
}  // namespace fastft
