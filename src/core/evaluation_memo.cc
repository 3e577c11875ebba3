#include "core/evaluation_memo.h"

#include <utility>

#include "common/cancel.h"
#include "core/expression.h"

namespace fastft {

std::vector<int> EvaluationMemo::Key(const FeatureSpace& space) {
  std::vector<int> key;
  std::vector<PostfixItem> items;
  for (int c = 0; c < space.NumColumns(); ++c) {
    items.clear();
    AppendPostfix(space.Expression(c), &items);
    for (const PostfixItem& item : items) {
      key.push_back(item.is_op ? -2 - item.index : item.index);
    }
    key.push_back(-1);
  }
  return key;
}

double EvaluationMemo::Score(const FeatureSpace& space,
                             const Evaluator& evaluator,
                             std::optional<Dataset>* candidate) {
  std::vector<int> key = Key(space);
  if (auto hit = scores_.find(key); hit != scores_.end()) {
    ++hits_;
    return hit->second;
  }
  candidate->emplace(space.ToDataset());
  const double score = evaluator.Evaluate(**candidate);
  const common::DeadlineToken* deadline = evaluator.config().deadline;
  if (deadline == nullptr || !deadline->Expired()) {
    scores_.emplace(std::move(key), score);
  }
  return score;
}

}  // namespace fastft
