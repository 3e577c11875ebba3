// Estimation hot-path tests: inference/training bit-identity, prefix-cache
// equivalence, and full-engine invariance to thread count and cache size.
//
// Every comparison is exact `==` on doubles — the acceleration layers
// (incremental encoding, blocked kernels) are required to reproduce the
// serial from-scratch arithmetic bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/novelty_estimator.h"
#include "core/run_report.h"
#include "data/synthetic.h"
#include "nn/sequence_model.h"

namespace fastft {
namespace {

// Token sequences shaped like the tokenizer's output: BOS ... EOS with the
// trailing EOS replaced on every extension (the engine's append pattern).
std::vector<std::vector<int>> GrowingSequences(int count, int vocab,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  std::vector<int> body = {1};  // BOS
  for (int i = 0; i < count; ++i) {
    body.push_back(3 + static_cast<int>(rng.Uniform() * (vocab - 4)));
    std::vector<int> seq = body;
    seq.push_back(2);  // EOS
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

std::vector<std::vector<int>> IndependentSequences(int count, int vocab,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  for (int i = 0; i < count; ++i) {
    std::vector<int> seq = {1};
    int len = 3 + static_cast<int>(rng.Uniform() * 20);
    for (int j = 0; j < len; ++j) {
      seq.push_back(3 + static_cast<int>(rng.Uniform() * (vocab - 4)));
    }
    seq.push_back(2);
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

class BackboneModelTest : public ::testing::TestWithParam<nn::Backbone> {};

// The inference path (Predict, prefix cache enabled) must be bit-identical
// to the training-forward path for every backbone.
TEST_P(BackboneModelTest, PredictBitIdenticalToForward) {
  nn::SequenceModelConfig cfg;
  cfg.backbone = GetParam();
  cfg.seed = 404;
  nn::SequenceModel model(cfg);
  for (const std::vector<int>& seq : GrowingSequences(12, cfg.vocab_size, 5)) {
    double trained_path = model.Forward(seq);
    double infer_path = model.Predict(seq);
    EXPECT_EQ(trained_path, infer_path);
    // Repeat from a warmed cache: still identical.
    EXPECT_EQ(model.Predict(seq), trained_path);
  }
}

// Cached (incremental) and from-scratch (cache disabled) encodes agree
// exactly, and the growing-sequence pattern actually reuses prefixes.
TEST_P(BackboneModelTest, PrefixCacheEquivalentToScratch) {
  nn::SequenceModelConfig cached_cfg;
  cached_cfg.backbone = GetParam();
  cached_cfg.seed = 405;
  nn::SequenceModelConfig scratch_cfg = cached_cfg;
  scratch_cfg.prefix_cache_bytes = 0;
  nn::SequenceModel cached(cached_cfg);
  nn::SequenceModel scratch(scratch_cfg);

  for (const std::vector<int>& seq : GrowingSequences(16, 64, 6)) {
    EXPECT_EQ(cached.Predict(seq), scratch.Predict(seq));
    EXPECT_EQ(cached.Encode(seq), scratch.Encode(seq));
  }
  nn::PrefixCacheStats stats = cached.prefix_cache_stats();
  if (GetParam() != nn::Backbone::kTransformer) {
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.tokens_reused, 0);
    EXPECT_GT(stats.HitRate(), 0.0);
  } else {
    // The transformer has no incremental form; its cache stays disabled.
    EXPECT_EQ(stats.lookups, 0);
  }
  EXPECT_EQ(scratch.prefix_cache_stats().hits, 0);
}

// A weight update must drop cached states: post-training predictions match
// a cache-less twin trained identically.
TEST_P(BackboneModelTest, CacheInvalidatedByTraining) {
  nn::SequenceModelConfig cached_cfg;
  cached_cfg.backbone = GetParam();
  cached_cfg.seed = 406;
  nn::SequenceModelConfig scratch_cfg = cached_cfg;
  scratch_cfg.prefix_cache_bytes = 0;
  nn::SequenceModel cached(cached_cfg);
  nn::SequenceModel scratch(scratch_cfg);

  std::vector<std::vector<int>> sequences = GrowingSequences(8, 64, 7);
  for (const std::vector<int>& seq : sequences) cached.Predict(seq);  // warm

  for (const std::vector<int>& seq : sequences) {
    EXPECT_EQ(cached.TrainStep(seq, 0.5), scratch.TrainStep(seq, 0.5));
    cached.ApplyStep();
    scratch.ApplyStep();
  }
  for (const std::vector<int>& seq : sequences) {
    EXPECT_EQ(cached.Predict(seq), scratch.Predict(seq));
  }
  if (GetParam() != nn::Backbone::kTransformer) {
    EXPECT_GT(cached.prefix_cache_stats().invalidations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneModelTest,
                         ::testing::Values(nn::Backbone::kLstm,
                                           nn::Backbone::kRnn,
                                           nn::Backbone::kTransformer),
                         [](const auto& info) {
                           return nn::BackboneName(info.param);
                         });

TEST(NoveltyEstimatorTest, DeterministicAcrossInstances) {
  NoveltyConfig cfg;
  cfg.seed = 99;
  NoveltyEstimator a(cfg);
  NoveltyEstimator b(cfg);
  for (const std::vector<int>& seq : IndependentSequences(10, 64, 8)) {
    EXPECT_EQ(a.Novelty(seq), b.Novelty(seq));
    EXPECT_EQ(a.NormalizedNovelty(seq), b.NormalizedNovelty(seq));
    EXPECT_EQ(a.TargetEmbedding(seq), b.TargetEmbedding(seq));
  }
}

EngineConfig SmallEngineConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.episodes = 5;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.collect_novelty_metrics = true;  // exercises the Fig. 14 sweep
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 77;
  return MakeClassification(spec);
}

void ExpectRunsBitIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  EXPECT_EQ(a.predictor_estimations, b.predictor_estimations);
  EXPECT_EQ(a.episode_best, b.episode_best);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].reward, b.trace[i].reward);
    EXPECT_EQ(a.trace[i].performance, b.trace[i].performance);
    EXPECT_EQ(a.trace[i].novelty, b.trace[i].novelty);
    EXPECT_EQ(a.trace[i].novelty_distance, b.trace[i].novelty_distance);
    EXPECT_EQ(a.trace[i].downstream_evaluated, b.trace[i].downstream_evaluated);
  }
}

// The run report without its single-line "runtime" section.
std::string ReportWithoutRuntime(const Dataset& dataset,
                                 const EngineResult& result) {
  std::string report = RunReportJson(dataset, result);
  const size_t start = report.find("\n  \"runtime\": ");
  EXPECT_NE(start, std::string::npos);
  if (start == std::string::npos) return report;
  return report.erase(start, report.find('\n', start + 1) - start);
}

// Estimation runs on the engine thread in step order, so the prefix-cache
// counters and every counted metric match at any thread count, not just the
// scores. The Fig. 14 sweep encodes every step's sequence through the
// target network, so the cold-start distillation only sees that cache's
// lookup order when the sweep is off.
TEST(EngineEstimationTest, RunBitIdenticalAcrossThreadCounts) {
  Dataset dataset = SmallDataset();
  for (bool sweep : {true, false}) {
    EngineConfig serial_cfg = SmallEngineConfig(31);
    serial_cfg.collect_novelty_metrics = sweep;
    serial_cfg.num_threads = 1;
    EngineResult serial = FastFtEngine(serial_cfg).Run(dataset).ValueOrDie();
    for (int threads : {2, 4}) {
      SCOPED_TRACE("sweep " + std::to_string(sweep) + ", threads " +
                   std::to_string(threads));
      EngineConfig parallel_cfg = serial_cfg;
      parallel_cfg.num_threads = threads;
      EngineResult parallel =
          FastFtEngine(parallel_cfg).Run(dataset).ValueOrDie();
      ExpectRunsBitIdentical(serial, parallel);
      const nn::PrefixCacheStats& a = serial.estimation_cache;
      const nn::PrefixCacheStats& b = parallel.estimation_cache;
      EXPECT_EQ(a.lookups, b.lookups);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.tokens_reused, b.tokens_reused);
      EXPECT_EQ(a.tokens_encoded, b.tokens_encoded);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.invalidations, b.invalidations);
      EXPECT_EQ(ReportWithoutRuntime(dataset, serial),
                ReportWithoutRuntime(dataset, parallel));
    }
  }
}

TEST(EngineEstimationTest, RunBitIdenticalWithAndWithoutPrefixCache) {
  Dataset dataset = SmallDataset();
  EngineConfig cached_cfg = SmallEngineConfig(32);
  EngineConfig uncached_cfg = SmallEngineConfig(32);
  uncached_cfg.prefix_cache_kb = 0;
  EngineResult cached = FastFtEngine(cached_cfg).Run(dataset).ValueOrDie();
  EngineResult uncached = FastFtEngine(uncached_cfg).Run(dataset).ValueOrDie();
  ExpectRunsBitIdentical(cached, uncached);

  // The estimation loop queries the cache and reuses prefix work...
  EXPECT_GT(cached.estimation_cache.lookups, 0);
  EXPECT_GT(cached.estimation_cache.tokens_reused, 0);
  // ...while training epochs invalidate it.
  EXPECT_GT(cached.estimation_cache.invalidations, 0);
  EXPECT_EQ(uncached.estimation_cache.lookups, 0);
}

TEST(EngineEstimationTest, RejectsNegativePrefixCacheSize) {
  EngineConfig cfg = SmallEngineConfig(33);
  cfg.prefix_cache_kb = -1;
  Result<EngineResult> r = FastFtEngine(cfg).Run(SmallDataset());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace fastft
