// Feature Transformation Sequence tokenization (paper Definition 4, Fig. 2).
//
// A transformation sequence is a token stream
//   <BOS> expr1 <SEP> expr2 <SEP> ... <EOS>
// where each expr is the postfix traversal of a generated feature's
// expression tree. Vocabulary: specials, operation ids, then feature-bucket
// ids (original feature indices folded into a fixed number of buckets so the
// vocabulary is dataset-independent).

#pragma once

#include <vector>

#include "core/expression.h"

namespace fastft {

class Tokenizer {
 public:
  static constexpr int kPad = 0;
  static constexpr int kBos = 1;
  static constexpr int kEos = 2;
  static constexpr int kSep = 3;
  static constexpr int kNumSpecials = 4;

  /// `feature_buckets`: vocabulary slots for original features (indices are
  /// taken modulo this). `max_length`: hard cap on emitted sequences.
  explicit Tokenizer(int feature_buckets = 48, int max_length = 192)
      : feature_buckets_(feature_buckets), max_length_(max_length) {}

  int vocab_size() const {
    return kNumSpecials + kNumOperations + feature_buckets_;
  }

  int OpToken(int op_index) const { return kNumSpecials + op_index; }
  int FeatureToken(int feature_index) const {
    return kNumSpecials + kNumOperations + (feature_index % feature_buckets_);
  }

  /// Postfix tokens of one expression (no specials).
  std::vector<int> EncodeExpr(const ExprPtr& expr) const;

  /// Full sequence for a set of generated features:
  /// BOS e1 SEP e2 SEP ... EOS, truncated to max_length (EOS kept).
  std::vector<int> EncodeFeatureSet(const std::vector<ExprPtr>& exprs) const;

 private:
  int feature_buckets_;
  int max_length_;
};

}  // namespace fastft

