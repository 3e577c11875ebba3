// Task-typed dataset: a feature DataFrame plus a label vector.

#pragma once

#include <string>
#include <vector>

#include "data/dataframe.h"

namespace fastft {

/// Downstream task family, matching the paper's C / R / D split.
enum class TaskType { kClassification, kRegression, kDetection };

/// Short label used in printed tables ("C", "R", "D").
const char* TaskTypeCode(TaskType task);

/// A dataset D = <F, y>. For classification/detection, labels hold class ids
/// 0..k-1 stored as doubles; detection is binary with class 1 = anomaly.
struct Dataset {
  std::string name;
  TaskType task = TaskType::kClassification;
  DataFrame features;
  std::vector<double> labels;

  int NumRows() const { return features.NumRows(); }
  int NumFeatures() const { return features.NumCols(); }

  /// Distinct label count for classification/detection (>=2); 0 for
  /// regression.
  int NumClasses() const;

  /// Returns a dataset with the same labels but the given feature frame.
  Dataset WithFeatures(DataFrame frame) const;

  /// Structural sanity: non-empty, label length matches rows, class labels
  /// are integral and contiguous from 0.
  Status Validate() const;
};

}  // namespace fastft

