// Mutual information estimation by quantile binning.
//
// Used by the clustering distance (paper Eq. 2) and by the MI-based feature
// selection that keeps the transformed feature set within budget.

#pragma once

#include <vector>

#include "data/dataframe.h"
#include "data/dataset.h"

namespace fastft {

/// Discretizes `values` into up to `bins` quantile bins (ties collapse).
std::vector<int> QuantileBin(const std::vector<double>& values, int bins);

/// Indices of `values` in ascending value order (ties in unspecified order).
std::vector<size_t> AscendingOrder(const std::vector<double>& values);

/// QuantileBin over `order == AscendingOrder(values)`, so a column binned at
/// several widths is sorted once. The bins depend only on the sorted value
/// sequence, not on how ties are ordered.
std::vector<int> QuantileBin(const std::vector<double>& values,
                             const std::vector<size_t>& order, int bins);

/// Occupancy of each bin of a pre-binned variable: `counts[v]` is how many
/// entries of `binned` equal v, for v in [0, max]. Checks every bin id is
/// non-negative.
std::vector<int> BinCounts(const std::vector<int>& binned);

/// MI between two pre-binned discrete variables, in nats.
double DiscreteMutualInformation(const std::vector<int>& a,
                                 const std::vector<int>& b);

/// Largest bin count per variable whose joint histogram fits on the stack.
inline constexpr int kMaxStackBins = 16;

/// The one MI formula: MI of `a` and `b` given their bin counts
/// (`count_a == BinCounts(a)`, `count_b == BinCounts(b)`, not re-checked).
/// Callers that keep each variable's counts pay only for the joint
/// histogram, which lives on the stack when both variables have at most
/// kMaxStackBins bins. Bit-identical to DiscreteMutualInformation(a, b).
double CountedMutualInformation(const std::vector<int>& a,
                                const std::vector<int>& count_a,
                                const std::vector<int>& b,
                                const std::vector<int>& count_b);

/// MI between two continuous columns (both quantile-binned).
double EstimateMI(const std::vector<double>& a, const std::vector<double>& b,
                  int bins = 8);

/// Discrete codes of the task labels: class ids for classification, `bins`
/// quantile bins for regression.
std::vector<int> LabelCodes(const std::vector<double>& labels, TaskType task,
                            int bins = 8);

/// MI between a column and the task labels (labels binned only for
/// regression).
double EstimateMIWithLabel(const std::vector<double>& column,
                           const std::vector<double>& labels, TaskType task,
                           int bins = 8);

/// Relevance of every column to the label.
std::vector<double> FeatureRelevance(const DataFrame& frame,
                                     const std::vector<double>& labels,
                                     TaskType task, int bins = 8);

/// Indices of the top-k columns by MI relevance (descending).
std::vector<int> TopKByRelevance(const DataFrame& frame,
                                 const std::vector<double>& labels,
                                 TaskType task, int k, int bins = 8);

}  // namespace fastft

