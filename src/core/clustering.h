// Incremental MI-based feature clustering (paper §III-B, Eq. 2).
//
// Starts from singleton clusters and greedily merges the closest pair under
//   dis(Ci, Cj) = mean over (Fi, Fj) of |MI(Fi,y) - MI(Fj,y)| / (MI(Fi,Fj)+ς)
// until the closest distance exceeds a threshold (or a floor on the number
// of clusters is reached). Small distance = similar label relevance and high
// mutual redundancy → same cluster.

#pragma once

#include <vector>

#include "core/feature_space.h"
#include "data/dataset.h"

namespace fastft {

/// How features are grouped for group-wise crossing. The MI-based
/// hierarchy is the paper's method; the alternatives exist for the design
/// ablations (bench/ablation_design):
///   kSingleton — every feature its own cluster (no group-wise crossing);
///   kRandom    — random partition of the same arity as the MI clustering.
enum class ClusterMode { kMiHierarchical, kSingleton, kRandom };

struct ClusteringConfig {
  ClusterMode mode = ClusterMode::kMiHierarchical;
  /// Seed for kRandom partitions.
  uint64_t random_seed = 77;
  /// Merging stops when the closest pair is farther than this.
  double distance_threshold = 1.0;
  /// Never merge below this many clusters.
  int min_clusters = 2;
  /// Cap on clusters returned (closest get merged until satisfied) to bound
  /// the agents' action space; <=0 disables.
  int max_clusters = 12;
  /// Denominator guard ς of Eq. 2.
  double varsigma = 1e-3;
};

/// Clusters the columns of `frame`, with the MI terms binned at
/// FeatureSpace::kMiBins quantile bins per column; returns disjoint index
/// groups covering all columns.
std::vector<std::vector<int>> ClusterFeatures(
    const DataFrame& frame, const std::vector<double>& labels, TaskType task,
    const ClusteringConfig& config = {});

/// Overload over the current columns of a FeatureSpace. Reads the space's
/// cached LabelRelevance and Redundancy (binned at FeatureSpace::kMiBins),
/// so repeated calls pay only for pairs with a new column; equal to the
/// DataFrame overload on `space.ToDataset()`.
std::vector<std::vector<int>> ClusterFeatures(
    const FeatureSpace& space, const ClusteringConfig& config = {});

}  // namespace fastft

