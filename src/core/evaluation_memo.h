// Run-scoped memo of downstream scores: one engine run evaluates each
// distinct candidate feature set once.
//
// Exact, not approximate (DESIGN.md, "Downstream-evaluation memo"): a
// column's values are a pure function of its expression tree — the
// originals are fixed, the operations are pure, and the sanitizer's median
// repair reads only the column itself — and a score depends only on the
// ordered columns, the labels and the evaluator configuration, which are
// fixed for a run. So the ordered expressions of the columns key the score.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/feature_space.h"
#include "data/dataset.h"
#include "ml/evaluator.h"

namespace fastft {

class EvaluationMemo {
 public:
  /// The downstream score of `space`'s current feature set under
  /// `evaluator`: the memoized score when this memo has seen the set (a
  /// hit), else evaluator.Evaluate(space.ToDataset()), with the dataset left
  /// in *candidate. A computed score — NaN included — is memoized unless the
  /// evaluator's deadline had expired after the call: a score with folds
  /// skipped on the deadline is not deterministic. One memo serves one
  /// evaluator and one dataset's spaces.
  double Score(const FeatureSpace& space, const Evaluator& evaluator,
               std::optional<Dataset>* candidate);

  /// Scores answered from the memo.
  int64_t hits() const { return hits_; }
  /// Distinct feature sets memoized.
  size_t size() const { return scores_.size(); }

  /// The key of `space`'s feature set: every column's postfix expression in
  /// column order — leaves as their feature index (>= 0), operations as
  /// -2 - op — each column closed by -1.
  static std::vector<int> Key(const FeatureSpace& space);

 private:
  std::map<std::vector<int>, double> scores_;
  int64_t hits_ = 0;
};

}  // namespace fastft
