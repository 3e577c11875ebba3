#include "data/dataset.h"

#include <cmath>
#include <set>

namespace fastft {

const char* TaskTypeCode(TaskType task) {
  switch (task) {
    case TaskType::kClassification:
      return "C";
    case TaskType::kRegression:
      return "R";
    case TaskType::kDetection:
      return "D";
  }
  return "?";
}

int Dataset::NumClasses() const {
  if (task == TaskType::kRegression) return 0;
  std::set<int> classes;
  for (double y : labels) classes.insert(static_cast<int>(y));
  return static_cast<int>(classes.size());
}

Dataset Dataset::WithFeatures(DataFrame frame) const {
  Dataset out;
  out.name = name;
  out.task = task;
  out.features = std::move(frame);
  out.labels = labels;
  return out;
}

Status Dataset::Validate() const {
  if (features.NumCols() == 0) {
    return Status::InvalidArgument("dataset '" + name + "' has no features");
  }
  if (static_cast<int>(labels.size()) != features.NumRows()) {
    return Status::InvalidArgument("dataset '" + name +
                                   "': label/row count mismatch");
  }
  // Non-finite cells would silently poison models and MI estimates; reject
  // them loudly here (CSV loaders surface this as a clean error).
  for (int c = 0; c < features.NumCols(); ++c) {
    for (double v : features.Col(c)) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("dataset '" + name + "': column '" +
                                       features.Name(c) +
                                       "' has a non-finite value");
      }
    }
  }
  for (double y : labels) {
    if (!std::isfinite(y)) {
      return Status::InvalidArgument("dataset '" + name +
                                     "': non-finite label");
    }
  }
  if (task != TaskType::kRegression) {
    std::set<int> classes;
    for (double y : labels) {
      if (y != std::floor(y)) {
        return Status::InvalidArgument("non-integral class label");
      }
      classes.insert(static_cast<int>(y));
    }
    if (classes.empty() || *classes.begin() != 0 ||
        *classes.rbegin() != static_cast<int>(classes.size()) - 1) {
      return Status::InvalidArgument(
          "class labels must be contiguous from 0");
    }
  }
  return Status::OK();
}

}  // namespace fastft
