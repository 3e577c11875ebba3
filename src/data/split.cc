#include "data/split.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/rng.h"

namespace fastft {
namespace {

// Groups row indices by class (single group for regression), shuffled.
std::vector<std::vector<int>> GroupedIndices(const Dataset& dataset,
                                             Rng* rng) {
  std::vector<std::vector<int>> groups;
  if (dataset.task == TaskType::kRegression) {
    std::vector<int> all(dataset.NumRows());
    for (int i = 0; i < dataset.NumRows(); ++i) all[i] = i;
    rng->Shuffle(all);
    groups.push_back(std::move(all));
  } else {
    std::map<int, std::vector<int>> by_class;
    for (int i = 0; i < dataset.NumRows(); ++i) {
      by_class[static_cast<int>(dataset.labels[i])].push_back(i);
    }
    for (auto& [cls, idx] : by_class) {
      rng->Shuffle(idx);
      groups.push_back(std::move(idx));
    }
  }
  return groups;
}

}  // namespace

std::vector<TrainTestIndices> KFoldSplit(const Dataset& dataset, int folds,
                                         uint64_t seed) {
  FASTFT_CHECK_GE(folds, 2);
  Rng rng(seed);
  std::vector<std::vector<int>> fold_members(folds);
  int cursor = 0;
  for (const std::vector<int>& group : GroupedIndices(dataset, &rng)) {
    for (int idx : group) {
      fold_members[cursor % folds].push_back(idx);
      ++cursor;
    }
  }
  std::vector<TrainTestIndices> out(folds);
  for (int k = 0; k < folds; ++k) {
    for (int j = 0; j < folds; ++j) {
      auto& dst = (j == k) ? out[k].test : out[k].train;
      dst.insert(dst.end(), fold_members[j].begin(), fold_members[j].end());
    }
    std::sort(out[k].train.begin(), out[k].train.end());
    std::sort(out[k].test.begin(), out[k].test.end());
  }
  return out;
}

}  // namespace fastft
