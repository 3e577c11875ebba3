// K-fold cross-validation index generation.

#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fastft {

struct TrainTestIndices {
  std::vector<int> train;
  std::vector<int> test;
};

/// K-fold partition; fold k of the result is the test block of split k.
/// Stratified for classification/detection tasks. Each split's train and
/// test rows are ascending (the evaluator's presort views rely on it).
std::vector<TrainTestIndices> KFoldSplit(const Dataset& dataset, int folds,
                                         uint64_t seed);

}  // namespace fastft

