// LDA baseline (Table I baseline 3): unsupervised linear projection.
//
// The paper uses Latent Dirichlet Allocation as its dimensionality-reduction
// baseline. Offline we substitute an *unsupervised* linear projection
// (power-iteration PCA to d/4 components) — like LDA it reduces the table
// without looking at labels, playing the same role in Table I: a reduction
// baseline that discards interaction information. A supervised projector
// (e.g. Fisher LDA fit on all rows) would leak labels into the
// cross-validated evaluation, so it is deliberately avoided (DESIGN.md §4).

#include "baselines/methods.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace fastft {
namespace {

// Row-major covariance-like scatter of centered rows.
std::vector<std::vector<double>> Scatter(const Rows& rows,
                                         const std::vector<double>& mean) {
  const int d = static_cast<int>(mean.size());
  std::vector<std::vector<double>> s(d, std::vector<double>(d, 0.0));
  for (const auto& row : rows) {
    for (int i = 0; i < d; ++i) {
      double di = row[i] - mean[i];
      for (int j = i; j < d; ++j) {
        s[i][j] += di * (row[j] - mean[j]);
      }
    }
  }
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < i; ++j) s[i][j] = s[j][i];
  }
  return s;
}

std::vector<double> ColumnMean(const Rows& rows, int d) {
  std::vector<double> mean(d, 0.0);
  for (const auto& row : rows) {
    for (int i = 0; i < d; ++i) mean[i] += row[i];
  }
  for (double& v : mean) v /= static_cast<double>(rows.size());
  return mean;
}

// Top-k principal directions via power iteration with deflation.
std::vector<std::vector<double>> PcaDirections(const Rows& rows, int k,
                                               uint64_t seed) {
  const int d = static_cast<int>(rows[0].size());
  std::vector<double> mean = ColumnMean(rows, d);
  std::vector<std::vector<double>> cov = Scatter(rows, mean);
  Rng rng(seed);
  std::vector<std::vector<double>> directions;
  for (int comp = 0; comp < k && comp < d; ++comp) {
    std::vector<double> v(d);
    for (double& x : v) x = rng.Normal();
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<double> next(d, 0.0);
      for (int i = 0; i < d; ++i) {
        for (int j = 0; j < d; ++j) next[i] += cov[i][j] * v[j];
      }
      double norm = 0.0;
      for (double x : next) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-12) break;
      for (int i = 0; i < d; ++i) v[i] = next[i] / norm;
    }
    // Deflate: cov -= λ v v^T with λ = v^T cov v.
    std::vector<double> cv(d, 0.0);
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) cv[i] += cov[i][j] * v[j];
    }
    double lambda = 0.0;
    for (int i = 0; i < d; ++i) lambda += v[i] * cv[i];
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) cov[i][j] -= lambda * v[i] * v[j];
    }
    directions.push_back(v);
  }
  return directions;
}

}  // namespace

BaselineResult RunLda(const BaselineConfig& config, const Dataset& dataset) {
  MethodRun run(config, dataset);

  Rows rows = dataset.features.ToRows();
  // Unsupervised projection only: using labels here would leak them into
  // the cross-validated evaluation.
  int k = std::max(2, dataset.NumFeatures() / 4);
  std::vector<std::vector<double>> directions =
      PcaDirections(rows, k, DeriveSeed(config.seed, 2));
  FASTFT_CHECK(!directions.empty());

  DataFrame projected;
  for (size_t c = 0; c < directions.size(); ++c) {
    std::vector<double> column(rows.size(), 0.0);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t j = 0; j < directions[c].size(); ++j) {
        column[r] += rows[r][j] * directions[c][j];
      }
    }
    FASTFT_CHECK(projected
                     .AddColumn("proj" + std::to_string(c), std::move(column))
                     .ok());
  }
  Dataset reduced = dataset.WithFeatures(std::move(projected));
  run.result.score = run.evaluator.Evaluate(reduced);
  run.result.best_dataset = std::move(reduced);
  return run.Finish();
}

}  // namespace fastft
