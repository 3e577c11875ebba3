// Checkpoint/resume subsystem tests: serialization round trips, envelope
// corruption rejection, and the headline identity property — a run
// checkpointed at episode k and resumed to the full horizon produces the
// bit-identical final result of an uninterrupted run, serial or threaded.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/agents.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/health.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"
#include "core/replay_buffer.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

using common::BinaryReader;
using common::BinaryWriter;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Binary envelope primitives.

TEST(SerialTest, WriterReaderRoundTrip) {
  BinaryWriter w;
  w.WriteBool(true);
  w.WriteU32(0xDEADBEEFu);
  w.WriteI64(-123456789012345LL);
  w.WriteDouble(3.14159);
  w.WriteString("hello checkpoint");
  w.WriteVecDouble({1.5, -2.5, 0.0});
  w.WriteVecInt({7, -8, 9});
  w.WriteVecU64({1ull << 60, 42});

  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadI64(), -123456789012345LL);
  EXPECT_EQ(r.ReadDouble(), 3.14159);
  EXPECT_EQ(r.ReadString(), "hello checkpoint");
  EXPECT_EQ(r.ReadVecDouble(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.ReadVecInt(), (std::vector<int>{7, -8, 9}));
  EXPECT_EQ(r.ReadVecU64(), (std::vector<uint64_t>{1ull << 60, 42}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

// Empty containers have a null data(); the reader must not hand that to
// memcpy (the UBSan leg aborts on it) and must still consume the prefix.
TEST(SerialTest, EmptyContainersRoundTrip) {
  BinaryWriter w;
  w.WriteVecDouble({});
  w.WriteVecInt({});
  w.WriteVecU64({});
  w.WriteString("");
  w.WriteU32(7);

  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadVecDouble().empty());
  EXPECT_TRUE(r.ReadVecInt().empty());
  EXPECT_TRUE(r.ReadVecU64().empty());
  EXPECT_TRUE(r.ReadString().empty());
  std::vector<double> none;
  EXPECT_TRUE(r.ReadRaw(none.data(), 0));
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, ReaderRejectsTruncation) {
  BinaryWriter w;
  w.WriteU64(7);
  std::string truncated = w.buffer().substr(0, 3);
  BinaryReader r(truncated);
  (void)r.ReadU64();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
}

TEST(SerialTest, ReaderRejectsCorruptedLengthPrefix) {
  // A length prefix claiming more elements than bytes remain must fail
  // before any allocation of that size.
  BinaryWriter w;
  w.WriteU64(~0ull);  // absurd element count
  BinaryReader r(w.buffer());
  (void)r.ReadVecDouble();
  EXPECT_FALSE(r.ok());
}

TEST(SerialTest, Crc32KnownAnswer) {
  // CRC-32/ISO-HDLC of "123456789" is the classic check value 0xCBF43926.
  const std::string data = "123456789";
  EXPECT_EQ(common::Crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(FsTest, AtomicWriteReadRoundTrip) {
  std::string path = TempPath("atomic_rt.bin");
  std::string payload = "payload with \0 byte";
  ASSERT_TRUE(common::AtomicWriteFile(path, payload).ok());
  std::string back;
  ASSERT_TRUE(common::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
  // Overwrite is atomic too (rename over the old file).
  ASSERT_TRUE(common::AtomicWriteFile(path, "v2").ok());
  ASSERT_TRUE(common::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "v2");
}

TEST(FsTest, ReadMissingFileIsNotFound) {
  std::string back;
  Status st = common::ReadFileToString(TempPath("no_such_file_xyz"), &back);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Component round trips.

TEST(CheckpointTest, RngStreamRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 17; ++i) rng.Uniform();
  rng.Normal();  // leaves a cached Box-Muller spare in the distribution
  std::string blob = rng.SaveState();

  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.Uniform());
  for (int i = 0; i < 8; ++i) expected.push_back(rng.Normal());

  Rng restored(1);  // different seed; LoadState must fully overwrite
  ASSERT_TRUE(restored.LoadState(blob));
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(restored.Uniform(), expected[i]);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.Normal(), expected[32 + i]);
  }
  EXPECT_FALSE(restored.LoadState("not an rng stream"));
}

Transition MakeTransition(int tag) {
  Transition t;
  t.head_inputs = nn::Matrix(2, 3);
  for (int i = 0; i < static_cast<int>(t.head_inputs.size()); ++i) {
    t.head_inputs.data()[i] = tag + i * 0.5;
  }
  t.head_action = tag % 2;
  t.op_input = nn::Matrix(1, 4);
  t.op_action = tag;
  t.state = {1.0 * tag, 2.0};
  t.next_state = {3.0, 4.0 * tag};
  t.reward = 0.25 * tag;
  t.tokens = {tag, tag + 1, tag + 2};
  t.performance = 0.5 + tag;
  return t;
}

TEST(CheckpointTest, ReplayBufferRoundTripPreservesPrioritiesAndSampling) {
  PrioritizedReplayBuffer buffer(4);
  for (int i = 0; i < 6; ++i) {  // wraps: ring cursor state matters
    buffer.Add(MakeTransition(i), 0.5 + i);
  }
  BinaryWriter w;
  buffer.SaveState(&w);

  PrioritizedReplayBuffer restored(4);
  BinaryReader r(w.buffer());
  restored.LoadState(&r);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(restored.size(), buffer.size());
  for (int i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(restored.Priority(i), buffer.Priority(i));
    EXPECT_EQ(restored.Get(i).reward, buffer.Get(i).reward);
    EXPECT_EQ(restored.Get(i).tokens, buffer.Get(i).tokens);
    EXPECT_EQ(restored.Get(i).performance, buffer.Get(i).performance);
  }
  // The sampling stream over the restored buffer matches the original.
  Rng rng_a(5), rng_b(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(buffer.SampleIndex(&rng_a), restored.SampleIndex(&rng_b));
  }
  // Eviction order after restore matches too (ring cursor survived).
  buffer.Add(MakeTransition(7), 1.0);
  restored.Add(MakeTransition(7), 1.0);
  for (int i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer.Get(i).reward, restored.Get(i).reward);
  }
}

TEST(CheckpointTest, ReplayBufferRejectsCapacityMismatch) {
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(MakeTransition(1), 1.0);
  BinaryWriter w;
  buffer.SaveState(&w);
  PrioritizedReplayBuffer other(8);
  BinaryReader r(w.buffer());
  other.LoadState(&r);
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointTest, HealthLadderRoundTrip) {
  HealthReport report;
  // Drive the predictor into quarantine with some backoff history.
  report.RecordComponentFault(&report.predictor);
  report.predictor.TickBackoff();
  report.RecordEvaluatorFault();
  report.skipped_updates = 3;

  BinaryWriter w;
  report.SaveState(&w);
  HealthReport restored;
  BinaryReader r(w.buffer());
  restored.LoadState(&r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.predictor.state, report.predictor.state);
  EXPECT_EQ(restored.predictor.faults, report.predictor.faults);
  EXPECT_EQ(restored.predictor.backoff_rounds, report.predictor.backoff_rounds);
  EXPECT_EQ(restored.predictor.rounds_until_retry,
            report.predictor.rounds_until_retry);
  EXPECT_EQ(restored.faults_observed, report.faults_observed);
  EXPECT_EQ(restored.evaluator_faults, report.evaluator_faults);
  EXPECT_EQ(restored.skipped_updates, report.skipped_updates);
  // Identity (the component name) is not state and is left alone.
  EXPECT_EQ(restored.predictor.name, "performance_predictor");
}

// ---------------------------------------------------------------------------
// Config fingerprint.

TEST(CheckpointTest, FingerprintIgnoresHorizonAndThreads) {
  EngineConfig a;
  EngineConfig b = a;
  b.episodes = a.episodes + 5;         // resumable with a longer horizon
  b.num_threads = 4;                   // determinism holds at any count
  b.prefix_cache_kb = 0;               // cache sizing never changes scores
  b.trace_path = "/tmp/t.json";        // observability plumbing
  b.checkpoint_every_episodes = 3;     // checkpoint plumbing
  EXPECT_EQ(EngineConfigFingerprint(a), EngineConfigFingerprint(b));
}

TEST(CheckpointTest, FingerprintTracksDeterminismKnobs) {
  EngineConfig base;
  EngineConfig seed = base;
  seed.seed = base.seed + 1;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(seed));
  EngineConfig steps = base;
  steps.steps_per_episode = base.steps_per_episode + 1;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(steps));
  EngineConfig folds = base;
  folds.evaluator.folds = base.evaluator.folds + 1;
  EXPECT_NE(EngineConfigFingerprint(base), EngineConfigFingerprint(folds));
}

// ---------------------------------------------------------------------------
// Envelope validation via a real (but arbitrary) component context.

struct CtxBundle {
  EngineState state{EngineConfig{}};

  EngineState* ctx() { return &state; }
};

TEST(CheckpointTest, RestoreStatusesAreDescriptive) {
  CtxBundle bundle;
  EngineConfig config;
  std::string path = TempPath("envelope.ckpt");

  // Missing file → NotFound (the engine starts fresh silently).
  Status missing =
      RestoreEngineState(TempPath("nope.ckpt"), config, bundle.ctx());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  std::string envelope = SerializeEngineState(config, *bundle.ctx());
  ASSERT_TRUE(WriteCheckpoint(path, envelope).ok());
  // The pristine envelope restores (into the same components it came from).
  EXPECT_TRUE(RestoreEngineState(path, config, bundle.ctx()).ok());

  // Truncation (typical torn write on a non-atomic filesystem).
  ASSERT_TRUE(
      common::AtomicWriteFile(path, envelope.substr(0, envelope.size() / 2))
          .ok());
  Status truncated = RestoreEngineState(path, config, bundle.ctx());
  EXPECT_EQ(truncated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.message().find("truncated"), std::string::npos)
      << truncated.ToString();

  // Bit rot in the payload → CRC mismatch.
  std::string flipped = envelope;
  flipped[flipped.size() / 2] ^= 0x40;
  ASSERT_TRUE(common::AtomicWriteFile(path, flipped).ok());
  Status crc = RestoreEngineState(path, config, bundle.ctx());
  EXPECT_EQ(crc.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(crc.message().find("CRC-32"), std::string::npos)
      << crc.ToString();

  // Wrong magic → not a checkpoint at all.
  std::string not_ours = envelope;
  not_ours[0] = 'X';
  ASSERT_TRUE(common::AtomicWriteFile(path, not_ours).ok());
  Status magic = RestoreEngineState(path, config, bundle.ctx());
  EXPECT_EQ(magic.code(), StatusCode::kInvalidArgument);

  // Future format version.
  std::string versioned = envelope;
  versioned[4] = 0x7F;
  ASSERT_TRUE(common::AtomicWriteFile(path, versioned).ok());
  Status version = RestoreEngineState(path, config, bundle.ctx());
  EXPECT_EQ(version.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(version.message().find("version"), std::string::npos)
      << version.ToString();

  // Fingerprint mismatch: a checkpoint from a different configuration.
  ASSERT_TRUE(WriteCheckpoint(path, envelope).ok());
  EngineConfig other = config;
  other.seed = config.seed + 1;
  Status fingerprint = RestoreEngineState(path, other, bundle.ctx());
  EXPECT_EQ(fingerprint.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fingerprint.message().find("deterministic"), std::string::npos)
      << fingerprint.ToString();
}

// ---------------------------------------------------------------------------
// Engine-level identity: checkpoint, resume, compare.

EngineConfig SmallConfig(uint64_t seed = 11) {
  EngineConfig cfg;
  cfg.episodes = 5;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 3;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 5;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 42;
  return MakeClassification(spec);
}

// Compares every deterministic field of the final result. Volatile fields
// (times, metrics delta, cache hit rates) legitimately differ across
// resumes and thread counts and are excluded by design.
void ExpectSameResult(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  EXPECT_EQ(a.predictor_estimations, b.predictor_estimations);
  EXPECT_EQ(a.episode_best, b.episode_best);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].reward, b.trace[i].reward) << "step " << i;
    EXPECT_EQ(a.trace[i].performance, b.trace[i].performance) << "step " << i;
    EXPECT_EQ(a.trace[i].downstream_evaluated, b.trace[i].downstream_evaluated)
        << "step " << i;
    EXPECT_EQ(a.trace[i].novelty, b.trace[i].novelty) << "step " << i;
    EXPECT_EQ(a.trace[i].top_new_feature, b.trace[i].top_new_feature)
        << "step " << i;
  }
  ASSERT_EQ(a.best_dataset.NumFeatures(), b.best_dataset.NumFeatures());
  for (int c = 0; c < a.best_dataset.NumFeatures(); ++c) {
    EXPECT_EQ(a.best_dataset.features.Name(c), b.best_dataset.features.Name(c));
    EXPECT_EQ(a.best_dataset.features.Col(c), b.best_dataset.features.Col(c));
  }
  EXPECT_EQ(a.health.faults_observed, b.health.faults_observed);
  EXPECT_EQ(a.health.skipped_updates, b.health.skipped_updates);
}

EngineResult RunOnce(EngineConfig cfg) {
  return FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
}

// State drift: every field of EngineState must survive a checkpoint round
// trip. The structured bindings below fail to compile when a field is added,
// so whoever adds one extends this test — and an unserialized field then
// comes back from the checkpoint at its default and fails it.
TEST(CheckpointTest, EngineStateRoundTripsWhole) {
  EngineConfig cfg = SmallConfig();
  cfg.collect_novelty_metrics = true;  // fills the Fig. 14 histories
  cfg.checkpoint_path = TempPath("drift/fastft.ckpt");
  (void)RunOnce(cfg);  // past cold start: the last boundary is episode 5

  EngineState boundary(cfg);
  ASSERT_TRUE(
      RestoreEngineState(cfg.checkpoint_path, cfg, &boundary).ok());
  const auto& [run, rng, policy, buffer, predictor, novelty, result] =
      boundary;
  const auto& [next_episode, global_step, components_ready, warm_steps,
               warm_evals, novelty_mean, novelty_count, sequence_records,
               prediction_history, novelty_history, embedding_history,
               seen_expressions] = run;
  auto non_default = [](const auto& field) {
    return field != std::decay_t<decltype(field)>{};
  };
  EXPECT_TRUE(non_default(next_episode));
  EXPECT_TRUE(non_default(global_step));
  EXPECT_TRUE(non_default(components_ready));
  EXPECT_TRUE(non_default(warm_steps));
  EXPECT_TRUE(non_default(warm_evals));
  EXPECT_TRUE(non_default(novelty_mean));
  EXPECT_TRUE(non_default(novelty_count));
  EXPECT_TRUE(non_default(sequence_records));
  EXPECT_TRUE(non_default(prediction_history));
  EXPECT_TRUE(non_default(novelty_history));
  EXPECT_TRUE(non_default(embedding_history));
  EXPECT_TRUE(non_default(seen_expressions));
  // The components are compared through their serialized bytes below.
  EXPECT_NE(rng.SaveState(), Rng(cfg.seed).SaveState());
  EXPECT_NE(policy, nullptr);
  EXPECT_GT(buffer.size(), 0);
  EXPECT_NE(predictor, nullptr);
  EXPECT_NE(novelty, nullptr);
  EXPECT_FALSE(result.trace.empty());

  // Restoring loses nothing the engine wrote ...
  const std::string envelope = SerializeEngineState(cfg, boundary);
  std::string on_disk;
  ASSERT_TRUE(common::ReadFileToString(cfg.checkpoint_path, &on_disk).ok());
  EXPECT_EQ(envelope, on_disk);

  // ... and a second round trip through a fresh state is exact.
  const std::string path = TempPath("drift/again.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, envelope).ok());
  EngineState fresh(cfg);
  ASSERT_TRUE(RestoreEngineState(path, cfg, &fresh).ok());
  EXPECT_TRUE(fresh.run == boundary.run);
  EXPECT_EQ(SerializeEngineState(cfg, fresh), envelope);
}

TEST(CheckpointTest, ResumeWithLongerHorizonMatchesUninterrupted) {
  EngineResult full = RunOnce(SmallConfig());

  std::string path = TempPath("resume_serial/fastft.ckpt");
  EngineConfig partial = SmallConfig();
  partial.episodes = 3;  // "killed" at the episode-3 boundary
  partial.checkpoint_path = path;
  EngineResult first = RunOnce(partial);
  EXPECT_FALSE(first.resumed);
  EXPECT_EQ(first.completed_episodes, 3);

  EngineConfig rest = SmallConfig();
  rest.checkpoint_path = path;
  rest.resume = true;
  EngineResult second = RunOnce(rest);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.completed_episodes, 5);
  ExpectSameResult(full, second);
}

TEST(CheckpointTest, ResumeMatchesAcrossThreadCounts) {
  EngineResult full = RunOnce(SmallConfig());  // serial, uncheckpointed

  std::string path = TempPath("resume_mt/fastft.ckpt");
  EngineConfig partial = SmallConfig();
  partial.episodes = 2;
  partial.num_threads = 4;
  partial.checkpoint_path = path;
  (void)RunOnce(partial);

  EngineConfig rest = SmallConfig();
  rest.num_threads = 4;
  rest.checkpoint_path = path;
  rest.resume = true;
  EngineResult second = RunOnce(rest);
  EXPECT_TRUE(second.resumed);
  ExpectSameResult(full, second);
}

TEST(CheckpointTest, CheckpointingItselfChangesNothing) {
  EngineResult plain = RunOnce(SmallConfig());
  EngineConfig with = SmallConfig();
  with.checkpoint_path = TempPath("inert/fastft.ckpt");
  EngineResult checkpointed = RunOnce(with);
  ExpectSameResult(plain, checkpointed);
}

TEST(CheckpointTest, CorruptedCheckpointFallsBackToFreshRun) {
  std::string path = TempPath("corrupt/fastft.ckpt");
  EngineConfig cfg = SmallConfig();
  cfg.checkpoint_path = path;
  (void)RunOnce(cfg);

  // Flip a payload byte; resume must reject it and run fresh — matching a
  // run that never saw a checkpoint.
  std::string blob;
  ASSERT_TRUE(common::ReadFileToString(path, &blob).ok());
  blob[blob.size() / 2] ^= 0x01;
  ASSERT_TRUE(common::AtomicWriteFile(path, blob).ok());

  EngineConfig resume_cfg = SmallConfig();
  resume_cfg.checkpoint_path = path;
  resume_cfg.resume = true;
  EngineResult fallback = RunOnce(resume_cfg);
  EXPECT_FALSE(fallback.resumed);
  ExpectSameResult(RunOnce(SmallConfig()), fallback);
}

TEST(CheckpointTest, MismatchedConfigFallsBackToFreshRun) {
  std::string path = TempPath("mismatch/fastft.ckpt");
  EngineConfig cfg = SmallConfig(11);
  cfg.checkpoint_path = path;
  (void)RunOnce(cfg);

  EngineConfig other = SmallConfig(12);  // different seed → fingerprint
  other.checkpoint_path = path;
  other.resume = true;
  EngineResult fallback = RunOnce(other);
  EXPECT_FALSE(fallback.resumed);
  ExpectSameResult(RunOnce(SmallConfig(12)), fallback);
}

// ---------------------------------------------------------------------------
// Watchdog / cancellation.

TEST(CheckpointTest, PreCancelledRunReturnsValidEmptyResult) {
  EngineConfig cfg = SmallConfig();
  cfg.cancel_flag = std::make_shared<std::atomic<bool>>(true);
  EngineResult r = RunOnce(cfg);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.completed_episodes, 0);
  EXPECT_EQ(r.total_steps, 0);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.episode_best.empty());
}

TEST(CheckpointTest, BudgetedRunResumesToIdenticalFinalResult) {
  // The interruption point is wall-clock dependent, but the contract is
  // not: whatever a budgeted run managed, resuming it without a budget
  // converges to the bit-identical uninterrupted result.
  EngineResult full = RunOnce(SmallConfig());

  std::string path = TempPath("budget/fastft.ckpt");
  EngineConfig limited = SmallConfig();
  limited.checkpoint_path = path;
  limited.wall_clock_budget_ms = 40;
  EngineResult partial = RunOnce(limited);
  EXPECT_LE(partial.completed_episodes, limited.episodes);

  EngineConfig rest = SmallConfig();
  rest.checkpoint_path = path;
  rest.resume = true;
  ExpectSameResult(full, RunOnce(rest));
}

TEST(CheckpointTest, ValidateRejectsBadCheckpointKnobs) {
  EngineConfig bad = SmallConfig();
  bad.checkpoint_every_episodes = 0;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = SmallConfig();
  bad.wall_clock_budget_ms = -1;
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
  bad = SmallConfig();
  bad.resume = true;  // no checkpoint_path
  EXPECT_FALSE(ValidateEngineConfig(bad).ok());
}

}  // namespace
}  // namespace fastft
