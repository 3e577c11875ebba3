#include "core/feature_space.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/mutual_information.h"

namespace fastft {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

static_assert(FeatureSpace::kMiBins <= kMaxStackBins,
              "the space's MI pairs must take the stack-histogram path");

}  // namespace

FeatureSpace::FeatureSpace(const Dataset& base, FeatureSpaceConfig config)
    : base_(base), config_(config) {
  FASTFT_CHECK(base_.Validate().ok()) << base_.Validate().ToString();
  num_originals_ = base_.NumFeatures();
  FASTFT_CHECK_GE(config_.max_features, num_originals_)
      << "budget below original feature count";
  for (int c = 0; c < num_originals_; ++c) {
    Column col;
    col.values = base_.features.Col(c);
    col.expr = MakeLeaf(c);
    col.value_hash = ValueHash(col.values);
    col.expr_hash = ExprHash(col.expr);
    col.rank_hash = BinColumn(&col).first;
    AppendColumn(std::move(col));
  }
  label_codes_ = LabelCodes(base_.labels, base_.task, kMiBins);
  label_counts_ = BinCounts(label_codes_);
  RebuildHashes();
}

void FeatureSpace::Reset() {
  columns_.erase(columns_.begin() + num_originals_, columns_.end());
  RebuildHashes();
}

const FeatureSpace::Column& FeatureSpace::At(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  return columns_[index];
}

const std::vector<double>& FeatureSpace::Values(int index) const {
  return At(index).values;
}

const ExprPtr& FeatureSpace::Expression(int index) const {
  return At(index).expr;
}

const Summary& FeatureSpace::ColumnSummary(int index) const {
  const Column& col = At(index);
  if (!col.summary_ready) {
    col.summary = Summarize(col.values);
    col.summary_ready = true;
  }
  return col.summary;
}

const std::vector<int>& FeatureSpace::BinnedValues(int index) const {
  return At(index).binned;
}

double FeatureSpace::LabelRelevance(int index) const {
  const Column& col = At(index);
  if (col.relevance < 0.0) {
    col.relevance = CountedMutualInformation(col.binned, col.bin_counts,
                                             label_codes_, label_counts_);
  }
  return col.relevance;
}

double FeatureSpace::Redundancy(int i, int j) const {
  // MI sums over the first argument's bins in the outer loop, so each pair
  // is computed one way round: lower index first, as the full pairwise
  // clustering did. Compaction keeps column order, so this never flips.
  if (i > j) std::swap(i, j);
  const Column& a = At(i);
  const Column& b = At(j);
  if (j >= redundancy_dim_) GrowRedundancy();
  double& slot = redundancy_[static_cast<size_t>(i) * redundancy_dim_ + j];
  if (std::isnan(slot)) {
    slot = CountedMutualInformation(a.binned, a.bin_counts, b.binned,
                                    b.bin_counts);
  }
  return slot;
}

void FeatureSpace::GrowRedundancy() const {
  // Room for a full step past the budget, so the engine sizes this once.
  const int dim = std::max(
      NumColumns(),
      config_.max_features +
          std::min(config_.max_new_per_step, config_.max_features));
  std::vector<double> grown(static_cast<size_t>(dim) * dim, kNaN);
  const int kept = std::min(redundancy_dim_, NumColumns());
  for (int i = 0; i < kept; ++i) {
    for (int j = i; j < kept; ++j) {
      grown[static_cast<size_t>(i) * dim + j] =
          redundancy_[static_cast<size_t>(i) * redundancy_dim_ + j];
    }
  }
  redundancy_ = std::move(grown);
  redundancy_dim_ = dim;
}

void FeatureSpace::AppendColumn(Column column) {
  // The slots of a new index may hold pairs of an evicted column.
  const int c = NumColumns();
  if (c < redundancy_dim_) {
    for (int i = 0; i <= c; ++i) {
      redundancy_[static_cast<size_t>(i) * redundancy_dim_ + c] = kNaN;
    }
  }
  columns_.push_back(std::move(column));
}

std::string FeatureSpace::ColumnName(int index) const {
  std::vector<std::string> names;
  names.reserve(base_.NumFeatures());
  for (int c = 0; c < base_.NumFeatures(); ++c) {
    names.push_back(base_.features.Name(c));
  }
  return ExprToString(Expression(index), names);
}

uint64_t FeatureSpace::ValueHash(const std::vector<double>& values) const {
  // Hash of values rounded to ~6 significant decimals, catching numerically
  // identical derivations (e.g. square(sqrt(x)) == |x|).
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    int64_t q = static_cast<int64_t>(std::llround(v * 1e6));
    h ^= static_cast<uint64_t>(q);
    h *= 1099511628211ULL;
  }
  return h;
}

std::pair<uint64_t, uint64_t> FeatureSpace::BinColumn(Column* column) {
  const std::vector<size_t> order = AscendingOrder(column->values);
  column->binned = QuantileBin(column->values, order, kMiBins);
  column->bin_counts = BinCounts(column->binned);
  const std::vector<int> bins = QuantileBin(column->values, order, 16);
  int max_bin = 0;
  for (int b : bins) max_bin = std::max(max_bin, b);
  uint64_t forward = 1469598103934665603ULL;
  uint64_t reflected = 1469598103934665603ULL;
  for (int b : bins) {
    forward = (forward ^ static_cast<uint64_t>(b)) * 1099511628211ULL;
    reflected =
        (reflected ^ static_cast<uint64_t>(max_bin - b)) * 1099511628211ULL;
  }
  return {forward, reflected};
}

void FeatureSpace::RebuildHashes() {
  value_hashes_.clear();
  expr_hashes_.clear();
  rank_hashes_.clear();
  for (const Column& col : columns_) {
    value_hashes_.insert(col.value_hash);
    expr_hashes_.insert(col.expr_hash);
    rank_hashes_.insert(col.rank_hash);
  }
}

bool FeatureSpace::SanitizeAndCheck(Column* column) {
  std::vector<double>& values = column->values;
  // Repair non-finite entries with the column median of finite ones.
  std::vector<double> finite;
  finite.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  if (finite.size() < values.size() / 2) return false;
  if (finite.size() < values.size()) {
    double median = Quantile(finite, 0.5);
    for (double& v : values) {
      if (!std::isfinite(v)) v = median;
    }
  }
  if (StdDev(values) < config_.min_std) return false;
  column->expr_hash = ExprHash(column->expr);
  if (expr_hashes_.count(column->expr_hash) > 0) return false;
  column->value_hash = ValueHash(values);
  if (value_hashes_.count(column->value_hash) > 0) return false;
  auto [forward, reflected] = BinColumn(column);
  column->rank_hash = forward;
  // Monotone-equivalence: an increasing or decreasing rescaling of an
  // existing column adds nothing a split-based model can use. Depth-2
  // expressions (one unary op on an original column, e.g. log(f3)) are
  // exempt — they are the classic rescalings that help linear downstream
  // models — while deeper monotone wrappers (sin(sin(x)) chains) stay
  // banned.
  if (column->expr->depth > 2 &&
      (rank_hashes_.count(forward) > 0 || rank_hashes_.count(reflected) > 0)) {
    return false;
  }
  return true;
}

int FeatureSpace::ApplyOperation(OpType op, const std::vector<int>& head,
                                 const std::vector<int>& tail, Rng* rng) {
  FASTFT_CHECK(rng != nullptr);
  int added = 0;
  auto try_add = [&](std::vector<double> values, ExprPtr expr) {
    if (expr->depth > config_.max_expr_depth) return;
    Column column;
    column.values = std::move(values);
    column.expr = std::move(expr);
    if (!SanitizeAndCheck(&column)) return;
    value_hashes_.insert(column.value_hash);
    expr_hashes_.insert(column.expr_hash);
    rank_hashes_.insert(column.rank_hash);
    AppendColumn(std::move(column));
    ++added;
  };

  if (IsUnary(op)) {
    for (int h : head) {
      if (added >= config_.max_new_per_step) break;
      FASTFT_CHECK_LT(h, NumColumns());
      try_add(ApplyUnary(op, columns_[h].values),
              MakeUnary(op, columns_[h].expr));
    }
  } else {
    FASTFT_CHECK(!tail.empty());
    // Enumerate head × tail pairs; sample down to the per-step cap.
    std::vector<std::pair<int, int>> pairs;
    for (int h : head) {
      for (int t : tail) {
        if (h == t && (op == OpType::kSub || op == OpType::kDiv)) continue;
        pairs.emplace_back(h, t);
      }
    }
    if (static_cast<int>(pairs.size()) > config_.max_new_per_step) {
      rng->Shuffle(pairs);
      pairs.resize(config_.max_new_per_step);
    }
    for (const auto& [h, t] : pairs) {
      if (added >= config_.max_new_per_step) break;
      FASTFT_CHECK_LT(h, NumColumns());
      FASTFT_CHECK_LT(t, NumColumns());
      try_add(ApplyBinary(op, columns_[h].values, columns_[t].values),
              MakeBinary(op, columns_[h].expr, columns_[t].expr));
    }
  }
  EnforceBudget();
  return added;
}

Dataset FeatureSpace::ToDataset() const {
  Dataset out;
  out.name = base_.name;
  out.task = base_.task;
  out.labels = base_.labels;
  for (int c = 0; c < NumColumns(); ++c) {
    FASTFT_CHECK(
        out.features.AddColumn(ColumnName(c), columns_[c].values).ok());
  }
  return out;
}

std::vector<ExprPtr> FeatureSpace::GeneratedExpressions() const {
  std::vector<ExprPtr> out;
  for (int c = num_originals_; c < NumColumns(); ++c) {
    out.push_back(columns_[c].expr);
  }
  return out;
}

std::vector<int> FeatureSpace::SequenceTokens(
    const Tokenizer& tokenizer) const {
  return tokenizer.EncodeFeatureSet(GeneratedExpressions());
}

void FeatureSpace::EnforceBudget() {
  if (NumColumns() <= config_.max_features) return;
  // Rank generated columns by MI relevance; originals always survive.
  const int keep_generated = config_.max_features - num_originals_;
  struct Ranked {
    int index;
    double relevance;
  };
  std::vector<Ranked> ranked;
  for (int c = num_originals_; c < NumColumns(); ++c) {
    ranked.push_back({c, LabelRelevance(c)});
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                                    const Ranked& b) {
    return a.relevance > b.relevance;
  });
  std::vector<int> survivors(num_originals_);
  std::iota(survivors.begin(), survivors.end(), 0);
  for (int i = 0; i < keep_generated && i < static_cast<int>(ranked.size());
       ++i) {
    survivors.push_back(ranked[i].index);
  }
  // Preserve creation order.
  std::sort(survivors.begin() + num_originals_, survivors.end());
  std::vector<Column> kept;
  kept.reserve(config_.max_features);
  for (int idx : survivors) kept.push_back(std::move(columns_[idx]));
  columns_ = std::move(kept);
  // Compact the redundancy pairs into survivor order. A survivor's old
  // index is never below its new one, so every slot is read before it is
  // overwritten.
  const int dim = redundancy_dim_;
  const int covered = std::min(NumColumns(), dim);
  for (int i = 0; i < covered; ++i) {
    for (int j = i; j < covered; ++j) {
      const int from_i = survivors[i], from_j = survivors[j];
      redundancy_[static_cast<size_t>(i) * dim + j] =
          from_j < dim
              ? redundancy_[static_cast<size_t>(from_i) * dim + from_j]
              : kNaN;
    }
  }
  RebuildHashes();
}

}  // namespace fastft
