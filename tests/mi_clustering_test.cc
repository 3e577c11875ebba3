// Tests for mutual information estimation and Eq. 2 clustering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/mutual_information.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

TEST(QuantileBinTest, BalancedBins) {
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> bins = QuantileBin(v, 4);
  int counts[4] = {0, 0, 0, 0};
  for (int b : bins) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    ++counts[b];
  }
  for (int c : counts) EXPECT_EQ(c, 25);
}

TEST(QuantileBinTest, TiesStayTogether) {
  std::vector<double> v = {1, 1, 1, 1, 2, 2, 2, 2};
  std::vector<int> bins = QuantileBin(v, 4);
  // All 1s share a bin; all 2s share a bin.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(bins[i], bins[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(bins[i], bins[4]);
  EXPECT_NE(bins[0], bins[4]);
}

TEST(QuantileBinTest, BinsDoNotDependOnTieOrder) {
  // Ties in reverse index order give another valid ascending order.
  std::vector<double> v = {3, 1, 2, 2, 1, 3, 3, 0, 2, 1, 1, 5};
  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return v[a] < v[b];
  });
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin;
    while (end < order.size() && v[order[end]] == v[order[begin]]) ++end;
    std::reverse(order.begin() + begin, order.begin() + end);
    begin = end;
  }
  for (int bins : {2, 3, 4, 8, 16}) {
    EXPECT_EQ(QuantileBin(v, order, bins), QuantileBin(v, bins)) << bins;
  }
}

TEST(MiTest, IdenticalVariablesHaveMaxMi) {
  Rng rng(1);
  std::vector<double> x(500);
  for (double& v : x) v = rng.Normal();
  double self = EstimateMI(x, x, 8);
  EXPECT_NEAR(self, std::log(8.0), 0.15);  // H(uniform over 8 bins)
}

TEST(MiTest, IndependentVariablesNearZero) {
  Rng rng(2);
  std::vector<double> x(2000), y(2000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  EXPECT_LT(EstimateMI(x, y, 8), 0.05);
}

TEST(MiTest, MonotoneTransformPreservesMi) {
  Rng rng(3);
  std::vector<double> x(1000), y(1000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = std::exp(x[i]);
  }
  // Quantile binning is invariant to monotone transforms.
  EXPECT_NEAR(EstimateMI(x, y, 8), std::log(8.0), 0.15);
}

TEST(MiTest, NonNegative) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(100), y(100);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.Normal();
      y[i] = rng.Normal();
    }
    EXPECT_GE(EstimateMI(x, y), 0.0);
  }
}

TEST(MiTest, LabelRelevanceClassification) {
  // Feature equal to the class label has high MI; noise has low MI.
  Rng rng(5);
  std::vector<double> labels(600), signal(600), noise(600);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = rng.UniformInt(2);
    signal[i] = labels[i] + rng.Normal(0, 0.05);
    noise[i] = rng.Normal();
  }
  double s = EstimateMIWithLabel(signal, labels, TaskType::kClassification);
  double n = EstimateMIWithLabel(noise, labels, TaskType::kClassification);
  EXPECT_GT(s, 5 * n + 0.1);
}

TEST(MiTest, TopKByRelevancePicksSignal) {
  SyntheticSpec spec;
  spec.samples = 300;
  spec.features = 6;
  Dataset ds = MakeClassification(spec);
  // Append a copy of the labels as a feature: it must rank first.
  DataFrame f = ds.features;
  ASSERT_TRUE(f.AddColumn("leak", ds.labels).ok());
  std::vector<int> top = TopKByRelevance(f, ds.labels, ds.task, 3);
  EXPECT_EQ(top.size(), 3u);
  EXPECT_TRUE(std::find(top.begin(), top.end(), 6) != top.end());
}

// --- Test-only oracle: the full recompute ---------------------------------
//
// Everything the engine's clustering computed before the FeatureSpace cached
// its pairwise statistics: MI over double histograms, every column pair
// rebinned from its values on every call, and a merge loop that rescans
// every cluster pair before each merge. The caches must match it bit for
// bit.

double OracleDiscreteMi(const std::vector<int>& a, const std::vector<int>& b) {
  const double n = static_cast<double>(a.size());
  if (a.empty()) return 0.0;
  int max_a = 0, max_b = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_a = std::max(max_a, a[i]);
    max_b = std::max(max_b, b[i]);
  }
  const int ka = max_a + 1, kb = max_b + 1;
  std::vector<double> pa(ka, 0.0), pb(kb, 0.0);
  std::vector<double> joint(static_cast<size_t>(ka) * kb, 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
    joint[static_cast<size_t>(a[i]) * kb + b[i]] += 1.0;
  }
  double mi = 0.0;
  for (int x = 0; x < ka; ++x) {
    if (pa[x] == 0.0) continue;
    for (int y = 0; y < kb; ++y) {
      double pxy = joint[static_cast<size_t>(x) * kb + y];
      if (pxy == 0.0) continue;
      mi += (pxy / n) * std::log(pxy * n / (pa[x] * pb[y]));
    }
  }
  return std::max(0.0, mi);
}

std::vector<int> OracleLabelCodes(const Dataset& ds) {
  if (ds.task == TaskType::kRegression) {
    return QuantileBin(ds.labels, FeatureSpace::kMiBins);
  }
  std::vector<int> codes;
  for (double y : ds.labels) codes.push_back(static_cast<int>(y));
  return codes;
}

std::vector<double> OracleRelevance(const FeatureSpace& space) {
  const std::vector<int> codes = OracleLabelCodes(space.base());
  std::vector<double> out;
  for (int c = 0; c < space.NumColumns(); ++c) {
    out.push_back(OracleDiscreteMi(
        QuantileBin(space.Values(c), FeatureSpace::kMiBins), codes));
  }
  return out;
}

// d x d, symmetric, zero diagonal.
std::vector<double> OracleRedundancy(const FeatureSpace& space) {
  const int d = space.NumColumns();
  std::vector<std::vector<int>> binned;
  for (int c = 0; c < d; ++c) {
    binned.push_back(QuantileBin(space.Values(c), FeatureSpace::kMiBins));
  }
  std::vector<double> out(static_cast<size_t>(d) * d, 0.0);
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      const double mi = OracleDiscreteMi(binned[i], binned[j]);
      out[static_cast<size_t>(i) * d + j] = mi;
      out[static_cast<size_t>(j) * d + i] = mi;
    }
  }
  return out;
}

std::vector<std::vector<int>> OracleClusters(
    const std::vector<double>& relevance, const std::vector<double>& mi,
    const ClusteringConfig& config) {
  const size_t d = relevance.size();
  std::vector<std::vector<int>> clusters;
  for (size_t c = 0; c < d; ++c) clusters.push_back({static_cast<int>(c)});
  if (static_cast<int>(d) <= config.min_clusters) return clusters;
  auto distance = [&](const std::vector<int>& a, const std::vector<int>& b) {
    double total = 0.0;
    for (int fi : a) {
      for (int fj : b) {
        total += std::abs(relevance[fi] - relevance[fj]) /
                 (mi[fi * d + fj] + config.varsigma);
      }
    }
    return total / (static_cast<double>(a.size()) *
                    static_cast<double>(b.size()));
  };
  auto merge_closest = [&](bool respect_threshold) {
    if (static_cast<int>(clusters.size()) <= config.min_clusters) return false;
    double best = std::numeric_limits<double>::infinity();
    int bi = -1, bj = -1;
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        const double dist = distance(clusters[i], clusters[j]);
        if (dist < best) {
          best = dist;
          bi = static_cast<int>(i);
          bj = static_cast<int>(j);
        }
      }
    }
    if (bi < 0) return false;
    if (respect_threshold && best > config.distance_threshold) return false;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + bj);
    return true;
  };
  while (merge_closest(true)) {
  }
  if (config.max_clusters > 0) {
    while (static_cast<int>(clusters.size()) > config.max_clusters &&
           merge_closest(false)) {
    }
  }
  for (auto& cluster : clusters) std::sort(cluster.begin(), cluster.end());
  return clusters;
}

TEST(MiOracleTest, CountedKernelMatchesDoubleHistograms) {
  Rng rng(40);
  for (int trial = 0; trial < 60; ++trial) {
    // Up to 40 bins, so both the stack and the heap histogram are covered;
    // a few trials leave bins empty or give one variable a single bin.
    const int n = 1 + rng.UniformInt(300);
    const int ka = 1 + rng.UniformInt(trial % 3 == 0 ? 40 : 16);
    const int kb = 1 + rng.UniformInt(trial % 4 == 0 ? 40 : 16);
    std::vector<int> a(n), b(n);
    for (int i = 0; i < n; ++i) {
      a[i] = rng.UniformInt(ka);
      b[i] = (trial % 2 == 0) ? (a[i] + rng.UniformInt(2)) % kb
                              : rng.UniformInt(kb);
    }
    const double oracle = OracleDiscreteMi(a, b);
    const double direct = DiscreteMutualInformation(a, b);
    const double counted =
        CountedMutualInformation(a, BinCounts(a), b, BinCounts(b));
    EXPECT_EQ(0, std::memcmp(&direct, &oracle, sizeof(double))) << trial;
    EXPECT_EQ(0, std::memcmp(&counted, &oracle, sizeof(double))) << trial;
  }
  EXPECT_EQ(DiscreteMutualInformation({}, {}), 0.0);
}

// Eight originals with ties, low cardinality and a near-constant column,
// and labels the MI terms see as classes or as quantile bins.
Dataset OracleDataset(TaskType task, uint64_t seed) {
  Rng rng(seed);
  const int n = 160;
  std::vector<std::vector<double>> cols(8, std::vector<double>(n));
  std::vector<double> labels(n);
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    cols[0][i] = z;
    cols[1][i] = std::round(rng.Normal() * 2.0) / 2.0;  // heavy ties
    cols[2][i] = rng.UniformInt(2);                    // binary
    cols[3][i] = rng.UniformInt(3) - 1.0;              // three levels
    cols[4][i] = (i % 53 == 7) ? 2.0 : 1.0;            // near-constant
    cols[5][i] = std::exp(rng.Normal());
    cols[6][i] = z + rng.Normal(0.0, 0.3);
    cols[7][i] = rng.UniformInt(5) * 1.5;
    labels[i] = task == TaskType::kRegression
                    ? z + 0.5 * cols[2][i] + rng.Normal(0.0, 0.2)
                    : static_cast<double>((z > 0.3) + (cols[2][i] > 0.5));
  }
  Dataset ds;
  ds.name = "oracle";
  ds.task = task;
  ds.labels = labels;
  for (int c = 0; c < 8; ++c) {
    const std::string name(1, static_cast<char>('a' + c));
    EXPECT_TRUE(ds.features.AddColumn(name, cols[c]).ok());
  }
  return ds;
}

// Takes a copy, so checking never fills the caller's caches.
void ExpectMatchesOracle(FeatureSpace space, const ClusteringConfig& config) {
  const int d = space.NumColumns();
  // Read the cache in both argument orders, lower triangle first.
  std::vector<double> cached(static_cast<size_t>(d) * d, 0.0);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < i; ++j) {
      cached[static_cast<size_t>(i) * d + j] = space.Redundancy(i, j);
      cached[static_cast<size_t>(j) * d + i] = space.Redundancy(j, i);
    }
  }
  const std::vector<double> oracle = OracleRedundancy(space);
  ASSERT_EQ(cached.size(), oracle.size());
  EXPECT_EQ(0, std::memcmp(cached.data(), oracle.data(),
                           cached.size() * sizeof(double)));
  std::vector<double> relevance;
  for (int c = 0; c < d; ++c) relevance.push_back(space.LabelRelevance(c));
  const std::vector<double> oracle_relevance = OracleRelevance(space);
  EXPECT_EQ(0, std::memcmp(relevance.data(), oracle_relevance.data(),
                           relevance.size() * sizeof(double)));
  const auto clusters = ClusterFeatures(space, config);
  EXPECT_EQ(clusters, OracleClusters(oracle_relevance, oracle, config));
  const Dataset materialized = space.ToDataset();
  EXPECT_EQ(clusters, ClusterFeatures(materialized.features,
                                      materialized.labels, materialized.task,
                                      config));
}

// One random crossing; returns whether the budget evicted columns.
bool RandomStep(FeatureSpace* space, Rng* rng) {
  auto pick = [&] {
    std::vector<int> columns;
    const int count = 1 + rng->UniformInt(3);
    for (int k = 0; k < count; ++k) {
      columns.push_back(rng->UniformInt(space->NumColumns()));
    }
    return columns;
  };
  const OpType op = OpFromIndex(rng->UniformInt(kNumOperations));
  const int before = space->NumColumns();
  const int added = space->ApplyOperation(op, pick(), pick(), rng);
  return before + added > space->config().max_features;
}

TEST(MiOracleTest, SpaceCachesMatchFullRecomputeOverSeededSequences) {
  int evictions = 0;
  for (TaskType task : {TaskType::kClassification, TaskType::kRegression}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "task " << static_cast<int>(task)
                                      << " seed " << seed);
      FeatureSpaceConfig fs;
      fs.max_features = 14;
      fs.max_new_per_step = 5;
      FeatureSpace space(OracleDataset(task, seed), fs);
      ClusteringConfig config;
      config.distance_threshold = 0.5 * static_cast<double>(seed);
      config.max_clusters = 3 + static_cast<int>(seed);
      Rng rng(seed);
      for (int episode = 0; episode < 3; ++episode) {
        for (int step = 0; step < 6; ++step) {
          // Fill all, some or none of the pairs before the next crossing.
          const int fill = rng.UniformInt(3);
          if (fill == 0) ClusterFeatures(space, config);
          if (fill == 1) space.Redundancy(0, space.NumColumns() - 1);
          evictions += RandomStep(&space, &rng);
          ExpectMatchesOracle(space, config);
        }
        space.Reset();
        ExpectMatchesOracle(space, config);
      }
      // A copy diverges from its parent, as TTG's children do.
      for (int step = 0; step < 4; ++step) RandomStep(&space, &rng);
      ClusterFeatures(space, config);
      FeatureSpace child(space);
      Rng child_rng(seed + 100);
      for (int step = 0; step < 4; ++step) {
        RandomStep(&child, &child_rng);
        RandomStep(&space, &rng);
        ExpectMatchesOracle(child, config);
        ExpectMatchesOracle(space, config);
      }
    }
  }
  EXPECT_GT(evictions, 0);
}

TEST(ClusteringTest, CoversAllFeaturesDisjointly) {
  SyntheticSpec spec;
  spec.samples = 200;
  spec.features = 10;
  Dataset ds = MakeClassification(spec);
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task);
  std::set<int> seen;
  for (const auto& cluster : clusters) {
    for (int f : cluster) {
      EXPECT_TRUE(seen.insert(f).second) << "feature in two clusters";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), ds.NumFeatures());
}

TEST(ClusteringTest, DuplicatedFeaturesMerge) {
  // Two identical columns are maximally redundant with equal relevance →
  // distance ~0, so they must merge.
  Rng rng(6);
  DataFrame f;
  std::vector<double> a(300), b(300), labels(300);
  for (int i = 0; i < 300; ++i) {
    a[i] = rng.Normal();
    b[i] = a[i];
    labels[i] = rng.UniformInt(2);
  }
  ASSERT_TRUE(f.AddColumn("a", a).ok());
  ASSERT_TRUE(f.AddColumn("dup", b).ok());
  std::vector<double> c(300);
  for (int i = 0; i < 300; ++i) c[i] = labels[i] + rng.Normal(0, 0.1);
  ASSERT_TRUE(f.AddColumn("signal", c).ok());
  ClusteringConfig cfg;
  cfg.distance_threshold = 2.0;
  auto clusters = ClusterFeatures(f, labels, TaskType::kClassification, cfg);
  // Find the cluster holding feature 0; it must also hold feature 1.
  for (const auto& cluster : clusters) {
    bool has0 = std::find(cluster.begin(), cluster.end(), 0) != cluster.end();
    bool has1 = std::find(cluster.begin(), cluster.end(), 1) != cluster.end();
    if (has0 || has1) {
      EXPECT_EQ(has0, has1);
    }
  }
}

TEST(ClusteringTest, MinClustersRespected) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 8;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.distance_threshold = 1e9;  // merge-everything pressure
  cfg.min_clusters = 3;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_GE(static_cast<int>(clusters.size()), 3);
}

TEST(ClusteringTest, MaxClustersCapsActionSpace) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 20;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.distance_threshold = 0.0;  // no natural merging
  cfg.max_clusters = 5;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_LE(static_cast<int>(clusters.size()), 5);
}

TEST(ClusteringTest, FeatureSpaceOverloadMatchesFrameOverload) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 8;
  Dataset ds = MakeClassification(spec);
  FeatureSpace space(ds);
  auto a = ClusterFeatures(space);
  auto b = ClusterFeatures(ds.features, ds.labels, ds.task);
  EXPECT_EQ(a, b);
}

TEST(ClusteringTest, SingleFeatureSingleCluster) {
  DataFrame f;
  ASSERT_TRUE(f.AddColumn("only", {1, 2, 3, 4, 5}).ok());
  auto clusters =
      ClusterFeatures(f, {0, 1, 0, 1, 0}, TaskType::kClassification);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], std::vector<int>{0});
}


TEST(ClusterModeTest, SingletonModeOneFeaturePerCluster) {
  SyntheticSpec spec;
  spec.samples = 100;
  spec.features = 9;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kSingleton;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  ASSERT_EQ(clusters.size(), 9u);
  for (const auto& cluster : clusters) EXPECT_EQ(cluster.size(), 1u);
}

TEST(ClusterModeTest, RandomModePartitionsAllFeatures) {
  SyntheticSpec spec;
  spec.samples = 100;
  spec.features = 12;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kRandom;
  cfg.max_clusters = 4;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_LE(clusters.size(), 4u);
  std::set<int> seen;
  for (const auto& cluster : clusters) {
    for (int f : cluster) EXPECT_TRUE(seen.insert(f).second);
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(ClusterModeTest, RandomModeDeterministicPerSeed) {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 10;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig a;
  a.mode = ClusterMode::kRandom;
  a.random_seed = 5;
  ClusteringConfig b = a;
  EXPECT_EQ(ClusterFeatures(ds.features, ds.labels, ds.task, a),
            ClusterFeatures(ds.features, ds.labels, ds.task, b));
  b.random_seed = 6;
  EXPECT_NE(ClusterFeatures(ds.features, ds.labels, ds.task, a),
            ClusterFeatures(ds.features, ds.labels, ds.task, b));
}

TEST(ClusterModeTest, FeatureSpaceOverloadHonorsMode) {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 7;
  FeatureSpace space(MakeClassification(spec));
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kSingleton;
  EXPECT_EQ(ClusterFeatures(space, cfg).size(), 7u);
}

}  // namespace
}  // namespace fastft
