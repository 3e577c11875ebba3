// The evolving transformed feature set F̂ with group-wise crossing.
//
// Holds the original columns plus generated columns, each carrying its
// expression tree. Implements the paper's group-wise feature crossing
// (§III-B), column hygiene, de-duplication, and the MI-based feature budget
// ("replacing useless features").

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/stats.h"

#include "core/expression.h"
#include "core/tokenizer.h"
#include "data/dataset.h"

namespace fastft {

class Rng;

struct FeatureSpaceConfig {
  /// Hard cap on total columns; originals are always kept.
  int max_features = 48;
  /// Cap on new columns added by one crossing step (pairs are sampled).
  int max_new_per_step = 12;
  /// Expressions deeper than this are not generated further.
  int max_expr_depth = 8;
  /// Columns with stddev below this are rejected as constant.
  double min_std = 1e-9;
};

class FeatureSpace {
 public:
  FeatureSpace(const Dataset& base, FeatureSpaceConfig config = {});

  int NumColumns() const { return static_cast<int>(columns_.size()); }
  int NumOriginals() const { return num_originals_; }
  int NumGenerated() const { return NumColumns() - num_originals_; }

  const std::vector<double>& Values(int index) const;
  const ExprPtr& Expression(int index) const;
  std::string ColumnName(int index) const;

  /// Cached seven-number summary of a column (columns are immutable once
  /// added, so this is computed once — the state representation hot path).
  const Summary& ColumnSummary(int index) const;

  /// Bins per column of every MI statistic the space caches (BinnedValues,
  /// LabelRelevance, Redundancy); at most kMaxStackBins, so every pair takes
  /// the counted kernel's stack histogram.
  static constexpr int kMiBins = 8;

  /// kMiBins quantile bins of a column, computed when it was added.
  const std::vector<int>& BinnedValues(int index) const;

  /// Cached MI(F_index, y).
  double LabelRelevance(int index) const;

  /// Cached MI(F_i, F_j) of the binned columns, filled on first use and
  /// bit-identical to DiscreteMutualInformation(BinnedValues(min(i, j)),
  /// BinnedValues(max(i, j))). A pair keeps its value until one of its
  /// columns is evicted, across ApplyOperation, EnforceBudget and (for two
  /// originals) Reset.
  double Redundancy(int i, int j) const;

  /// Group-wise crossing: applies `op` to every head column (unary) or to
  /// sampled head × tail pairs (binary), adds the surviving columns, and
  /// returns how many were added. `rng` drives pair sampling.
  int ApplyOperation(OpType op, const std::vector<int>& head,
                     const std::vector<int>& tail, Rng* rng);

  /// Materializes the current feature set as a dataset (labels shared).
  Dataset ToDataset() const;

  /// Expression trees of the generated (non-original) columns, in order.
  std::vector<ExprPtr> GeneratedExpressions() const;

  /// Token sequence of the current transformation (Definition 4).
  std::vector<int> SequenceTokens(const Tokenizer& tokenizer) const;

  /// Drops lowest-MI generated columns until the budget holds.
  void EnforceBudget();

  /// Back to the original columns only. The originals never change, so
  /// their caches and their redundancy pairs are kept.
  void Reset();

  const FeatureSpaceConfig& config() const { return config_; }
  const Dataset& base() const { return base_; }

 private:
  struct Column {
    std::vector<double> values;
    ExprPtr expr;
    // Computed once, when the column is created.
    uint64_t value_hash = 0;
    uint64_t expr_hash = 0;
    uint64_t rank_hash = 0;       // forward rank signature
    std::vector<int> binned;      // kMiBins quantile bins
    std::vector<int> bin_counts;  // BinCounts(binned)
    // Lazily-filled caches (values are immutable after creation).
    mutable bool summary_ready = false;
    mutable Summary summary;
    mutable double relevance = -1.0;  // <0 until first use
  };

  /// The column at `index`, bounds-checked.
  const Column& At(int index) const;
  /// Cleans a candidate column in place and fills its statistics; false if
  /// it must be rejected (constant, duplicated, monotone-equivalent to an
  /// existing column, or non-finite beyond repair).
  bool SanitizeAndCheck(Column* column);
  uint64_t ValueHash(const std::vector<double>& values) const;
  /// Sorts the column's values once to fill its MI bins and to compute its
  /// rank-pattern signatures, which it returns: equal for any increasing
  /// transform of the same column (forward) and for decreasing transforms
  /// (reflected). Tree-based evaluators are invariant to monotone
  /// rescalings, so such candidates are informationless duplicates.
  static std::pair<uint64_t, uint64_t> BinColumn(Column* column);
  /// Appends a column whose statistics are set and marks its redundancy
  /// pairs as not computed.
  void AppendColumn(Column column);
  /// Resizes the redundancy matrix to cover every current column, keeping
  /// the computed pairs.
  void GrowRedundancy() const;
  void RebuildHashes();

  Dataset base_;
  FeatureSpaceConfig config_;
  int num_originals_ = 0;
  std::vector<Column> columns_;
  std::unordered_set<uint64_t> value_hashes_;
  std::unordered_set<uint64_t> expr_hashes_;
  std::unordered_set<uint64_t> rank_hashes_;
  // Label codes (class ids, or kMiBins quantile bins for regression) and
  // their bin counts, for LabelRelevance.
  std::vector<int> label_codes_;
  std::vector<int> label_counts_;
  // MI(F_i, F_j) for i <= j < redundancy_dim_ at [i * redundancy_dim_ + j];
  // NaN until computed. Allocated on the first Redundancy call, so spaces
  // that never cluster (the baselines', some with unbounded steps) never
  // pay for it. Like the Column caches it is filled from const methods, so
  // a FeatureSpace is used by one thread at a time.
  mutable int redundancy_dim_ = 0;
  mutable std::vector<double> redundancy_;
};

}  // namespace fastft

