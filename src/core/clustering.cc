#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/mutual_information.h"

namespace fastft {
namespace {

// Pairwise Eq. 2 numerator/denominator pieces cached per feature pair.
struct PairwiseMi {
  int d = 0;
  std::vector<double> relevance;   // MI(Fi, y)
  std::vector<double> redundancy;  // MI(Fi, Fj) at [i * d + j]
};

PairwiseMi ComputePairwise(const DataFrame& frame,
                           const std::vector<double>& labels, TaskType task,
                           int bins) {
  const int d = frame.NumCols();
  PairwiseMi out;
  out.d = d;
  out.relevance = FeatureRelevance(frame, labels, task, bins);
  // Bin and count columns once.
  std::vector<std::vector<int>> binned(d), counts(d);
  for (int c = 0; c < d; ++c) {
    binned[c] = QuantileBin(frame.Col(c), bins);
    counts[c] = BinCounts(binned[c]);
  }
  out.redundancy.assign(static_cast<size_t>(d) * d, 0.0);
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      double mi = CountedMutualInformation(binned[i], counts[i], binned[j],
                                           counts[j]);
      out.redundancy[static_cast<size_t>(i) * d + j] = mi;
      out.redundancy[static_cast<size_t>(j) * d + i] = mi;
    }
  }
  return out;
}

double ClusterDistance(const std::vector<int>& a, const std::vector<int>& b,
                       const PairwiseMi& mi, double varsigma) {
  double total = 0.0;
  for (int fi : a) {
    for (int fj : b) {
      total += std::abs(mi.relevance[fi] - mi.relevance[fj]) /
               (mi.redundancy[static_cast<size_t>(fi) * mi.d + fj] + varsigma);
    }
  }
  return total / (static_cast<double>(a.size()) *
                  static_cast<double>(b.size()));
}

void MergeClusters(std::vector<std::vector<int>>* clusters,
                   const PairwiseMi& mi, const ClusteringConfig& config) {
  std::vector<std::vector<int>>& c = *clusters;
  // dist[i][j] (i < j) is ClusterDistance(c[i], c[j]). A merge changes only
  // the merged cluster, so only its distances are recomputed; the others
  // are the values a full rescan would compute again.
  std::vector<std::vector<double>> dist(c.size(),
                                        std::vector<double>(c.size(), 0.0));
  auto refresh = [&](size_t k) {
    for (size_t other = 0; other < c.size(); ++other) {
      if (other == k) continue;
      const size_t i = std::min(k, other), j = std::max(k, other);
      dist[i][j] = ClusterDistance(c[i], c[j], mi, config.varsigma);
    }
  };
  for (size_t k = 0; k < c.size(); ++k) refresh(k);

  auto merge_closest = [&](bool respect_threshold) -> bool {
    if (static_cast<int>(c.size()) <= config.min_clusters) return false;
    double best = std::numeric_limits<double>::infinity();
    int bi = -1, bj = -1;
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        if (dist[i][j] < best) {
          best = dist[i][j];
          bi = static_cast<int>(i);
          bj = static_cast<int>(j);
        }
      }
    }
    if (bi < 0) return false;
    if (respect_threshold && best > config.distance_threshold) return false;
    c[bi].insert(c[bi].end(), c[bj].begin(), c[bj].end());
    c.erase(c.begin() + bj);
    dist.erase(dist.begin() + bj);
    for (std::vector<double>& row : dist) row.erase(row.begin() + bj);
    refresh(bi);
    return true;
  };

  // Phase 1: threshold-bounded merging (the paper's stopping rule).
  while (merge_closest(/*respect_threshold=*/true)) {
  }
  // Phase 2: enforce the action-space cap.
  if (config.max_clusters > 0) {
    while (static_cast<int>(clusters->size()) > config.max_clusters &&
           merge_closest(/*respect_threshold=*/false)) {
    }
  }
  for (auto& cluster : *clusters) std::sort(cluster.begin(), cluster.end());
}

}  // namespace

namespace {

std::vector<std::vector<int>> SingletonClusters(int d) {
  std::vector<std::vector<int>> clusters;
  clusters.reserve(d);
  for (int c = 0; c < d; ++c) clusters.push_back({c});
  return clusters;
}

// Random partition into ~max_clusters groups (ablation mode).
std::vector<std::vector<int>> RandomClusters(int d,
                                             const ClusteringConfig& config) {
  int groups = config.max_clusters > 0
                   ? std::min(config.max_clusters, d)
                   : std::max(config.min_clusters, d / 3);
  groups = std::max(groups, 1);
  Rng rng(config.random_seed);
  std::vector<std::vector<int>> clusters(groups);
  for (int c = 0; c < d; ++c) clusters[rng.UniformInt(groups)].push_back(c);
  // Drop empties.
  std::vector<std::vector<int>> out;
  for (auto& cluster : clusters) {
    if (!cluster.empty()) out.push_back(std::move(cluster));
  }
  return out;
}

}  // namespace

std::vector<std::vector<int>> ClusterFeatures(const DataFrame& frame,
                                              const std::vector<double>& labels,
                                              TaskType task,
                                              const ClusteringConfig& config) {
  const int d = frame.NumCols();
  FASTFT_CHECK_GT(d, 0);
  if (config.mode == ClusterMode::kSingleton) return SingletonClusters(d);
  if (config.mode == ClusterMode::kRandom) return RandomClusters(d, config);
  std::vector<std::vector<int>> clusters = SingletonClusters(d);
  if (d <= config.min_clusters) return clusters;

  PairwiseMi mi = ComputePairwise(frame, labels, task, FeatureSpace::kMiBins);
  MergeClusters(&clusters, mi, config);
  return clusters;
}

std::vector<std::vector<int>> ClusterFeatures(const FeatureSpace& space,
                                              const ClusteringConfig& config) {
  const int d = space.NumColumns();
  FASTFT_CHECK_GT(d, 0);
  if (config.mode == ClusterMode::kSingleton) return SingletonClusters(d);
  if (config.mode == ClusterMode::kRandom) return RandomClusters(d, config);
  std::vector<std::vector<int>> clusters = SingletonClusters(d);
  if (d <= config.min_clusters) return clusters;

  // Read the FeatureSpace's cached label relevances and pairwise MI; only
  // pairs with a column added since the last call are computed. The two
  // sub-spans split engine/cluster in a trace (no PhaseTimes bucket).
  PairwiseMi mi;
  mi.d = d;
  {
    obs::TraceSpan span("cluster/mi");
    mi.relevance.resize(d);
    for (int c = 0; c < d; ++c) mi.relevance[c] = space.LabelRelevance(c);
    mi.redundancy.assign(static_cast<size_t>(d) * d, 0.0);
    for (int i = 0; i < d; ++i) {
      for (int j = i + 1; j < d; ++j) {
        const double value = space.Redundancy(i, j);
        mi.redundancy[static_cast<size_t>(i) * d + j] = value;
        mi.redundancy[static_cast<size_t>(j) * d + i] = value;
      }
    }
  }
  obs::TraceSpan span("cluster/merge");
  MergeClusters(&clusters, mi, config);
  return clusters;
}

}  // namespace fastft
