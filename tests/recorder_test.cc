// Tests of the fastft::obs flight recorder: the versioned on-disk stream
// (round-trip, corruption rejection, resume truncation, crash-during-write
// atomicity), the engine integration (record_path wiring, recording-on/off
// bit-identity at 1 and 4 threads, and overlapping recorded runs that each
// write their own stream), and the recorder knob of ValidateEngineConfig.

#include "common/recorder.h"

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/fs.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

// NaN-aware double comparison: runner_up_score is NaN with < 2 candidates
// and must survive serialization bit-for-bit in spirit (NaN stays NaN).
void ExpectSameDouble(double expected, double actual, const char* field) {
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual)) << field;
  } else {
    EXPECT_EQ(expected, actual) << field;
  }
}

void ExpectSameDecision(const obs::AgentDecision& expected,
                        const obs::AgentDecision& actual, const char* agent) {
  EXPECT_EQ(expected.action, actual.action) << agent;
  EXPECT_EQ(expected.candidates, actual.candidates) << agent;
  ExpectSameDouble(expected.chosen_score, actual.chosen_score, agent);
  ExpectSameDouble(expected.runner_up_score, actual.runner_up_score, agent);
}

void ExpectSameEvent(const obs::RecordEvent& expected,
                     const obs::RecordEvent& actual) {
  EXPECT_EQ(expected.kind, actual.kind);
  EXPECT_EQ(expected.episode, actual.episode);
  EXPECT_EQ(expected.step, actual.step);
  EXPECT_EQ(expected.global_step, actual.global_step);
  ExpectSameDecision(expected.head, actual.head, "head");
  ExpectSameDecision(expected.op, actual.op, "op");
  ExpectSameDecision(expected.tail, actual.tail, "tail");
  EXPECT_EQ(expected.epsilon, actual.epsilon);
  EXPECT_EQ(expected.novelty, actual.novelty);
  EXPECT_EQ(expected.predicted, actual.predicted);
  EXPECT_EQ(expected.performance, actual.performance);
  EXPECT_EQ(expected.reward, actual.reward);
  EXPECT_EQ(expected.reward_performance, actual.reward_performance);
  EXPECT_EQ(expected.reward_novelty, actual.reward_novelty);
  EXPECT_EQ(expected.novelty_weight, actual.novelty_weight);
  EXPECT_EQ(expected.downstream_evaluated, actual.downstream_evaluated);
  EXPECT_EQ(expected.generated, actual.generated);
  EXPECT_EQ(expected.priority_added, actual.priority_added);
  EXPECT_EQ(expected.priority_updated, actual.priority_updated);
  EXPECT_EQ(expected.replay_sampled, actual.replay_sampled);
  EXPECT_EQ(expected.replay_size, actual.replay_size);
  EXPECT_EQ(expected.site, actual.site);
  EXPECT_EQ(expected.detail, actual.detail);
  EXPECT_EQ(expected.best_score, actual.best_score);
}

obs::RecordEvent MakeDecisionEvent(int step) {
  obs::RecordEvent e;
  e.kind = obs::RecordEventKind::kDecision;
  e.episode = 1;
  e.step = step;
  e.global_step = 40 + step;
  e.head = {2, 5, 0.75, 0.5};
  e.op = {7, 12, -0.25, -0.5};
  e.tail = {-1, 0, 0.0, std::numeric_limits<double>::quiet_NaN()};
  e.epsilon = 0.35;
  e.novelty = 0.6;
  e.predicted = 0.71;
  e.performance = 0.72;
  e.reward = 0.05;
  e.reward_performance = 0.01;
  e.reward_novelty = 0.04;
  e.novelty_weight = 0.8;
  e.downstream_evaluated = true;
  e.generated = true;
  e.priority_added = 0.05;
  e.priority_updated = 0.002;
  e.replay_sampled = 3;
  e.replay_size = 17;
  e.detail = "(f1 add f2)";
  return e;
}

obs::RecordEvent MakeEpisodeEvent(int episode, double best_score) {
  obs::RecordEvent e;
  e.kind = obs::RecordEventKind::kEpisode;
  e.episode = episode;
  e.step = 4;
  e.best_score = best_score;
  e.replay_size = 9;
  return e;
}

// Appends `events` to `stream` and flushes them as episode `episode`'s block.
Status FlushEvents(obs::RecordStream* stream, int32_t episode,
                   const std::vector<obs::RecordEvent>& events) {
  for (const obs::RecordEvent& e : events) stream->Append(e);
  return stream->FlushEpisode(episode);
}

TEST(RecorderTest, StreamRoundTripsEveryEventKind) {
  const std::string path = ::testing::TempDir() + "/fastft_roundtrip.ffr";
  std::remove(path.c_str());

  obs::RecordEvent fault;
  fault.kind = obs::RecordEventKind::kFault;
  fault.episode = 1;
  fault.step = 2;
  fault.global_step = 42;
  fault.site = "predictor/predict";
  fault.detail = "non-finite estimate dropped";

  obs::RecordEvent health;
  health.kind = obs::RecordEventKind::kHealth;
  health.episode = 1;
  health.step = 2;
  health.site = "health/quarantine";
  health.detail = "performance_predictor";

  std::vector<obs::RecordEvent> emitted = {MakeDecisionEvent(2), fault, health,
                                           MakeEpisodeEvent(1, 0.875)};
  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  for (const obs::RecordEvent& e : emitted) stream.Append(e);
  EXPECT_EQ(stream.pending_events(), static_cast<int64_t>(emitted.size()));
  ASSERT_TRUE(stream.FlushEpisode(1).ok());
  EXPECT_EQ(stream.pending_events(), 0);
  EXPECT_EQ(stream.episode_blocks(), 1);

  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().version, obs::kRecordStreamVersion);
  ASSERT_EQ(decoded.value().episodes, std::vector<int32_t>{1});
  ASSERT_EQ(decoded.value().events.size(), emitted.size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    ExpectSameEvent(emitted[i], decoded.value().events[i]);
  }
  EXPECT_EQ(decoded.value().TotalDropped(), 0);
  std::remove(path.c_str());
}

TEST(RecorderTest, ResumeKeepsBlocksBeforeTheCursor) {
  const std::string path = ::testing::TempDir() + "/fastft_resume.ffr";
  std::remove(path.c_str());

  {
    obs::RecordStream stream = obs::RecordStream::Open(path, 0);
    for (int episode = 0; episode < 4; ++episode) {
      ASSERT_TRUE(FlushEvents(&stream, episode,
                              {MakeEpisodeEvent(episode, 0.1 * episode)})
                      .ok());
    }
    EXPECT_EQ(stream.episode_blocks(), 4);
  }

  // Resume at episode 2: blocks 0 and 1 survive, 2 and 3 (the interrupted
  // episode and anything stale after it) are dropped and re-flushed.
  obs::RecordStream resumed = obs::RecordStream::Open(path, 2);
  EXPECT_EQ(resumed.episode_blocks(), 2);
  ASSERT_TRUE(FlushEvents(&resumed, 2, {MakeEpisodeEvent(2, 42.0)}).ok());

  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, (std::vector<int32_t>{0, 1, 2}));
  ASSERT_EQ(decoded.value().events.size(), 3u);
  // Episode 2's block is the re-flushed one, not the pre-kill original.
  EXPECT_EQ(decoded.value().events[2].best_score, 42.0);

  // A fresh (non-resume) open discards the whole existing stream.
  obs::RecordStream fresh = obs::RecordStream::Open(path, 0);
  EXPECT_EQ(fresh.episode_blocks(), 0);
  ASSERT_TRUE(FlushEvents(&fresh, 0, {MakeEpisodeEvent(0, 1.0)}).ok());
  decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, std::vector<int32_t>{0});
  std::remove(path.c_str());
}

TEST(RecorderTest, UnreadableStreamIsDiscardedOnResume) {
  const std::string path = ::testing::TempDir() + "/fastft_garbage.ffr";
  ASSERT_TRUE(common::AtomicWriteFile(path, "this is not a record stream").ok());

  // Recording must never block a resume: the garbage is dropped silently
  // and the stream restarts from the resume cursor.
  obs::RecordStream stream = obs::RecordStream::Open(path, 3);
  EXPECT_EQ(stream.episode_blocks(), 0);
  ASSERT_TRUE(FlushEvents(&stream, 3, {MakeEpisodeEvent(3, 0.5)}).ok());
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, std::vector<int32_t>{3});
  std::remove(path.c_str());
}

TEST(RecorderTest, CorruptStreamsAreRejectedWithDiagnostics) {
  const std::string path = ::testing::TempDir() + "/fastft_corrupt.ffr";
  std::remove(path.c_str());
  EXPECT_FALSE(obs::ReadRecordStream(path).ok()) << "missing file";

  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  ASSERT_TRUE(FlushEvents(&stream, 0, {MakeDecisionEvent(0)}).ok());
  std::string valid;
  ASSERT_TRUE(common::ReadFileToString(path, &valid).ok());
  ASSERT_TRUE(obs::ReadRecordStream(path).ok());

  auto expect_rejected = [&](std::string bytes, const std::string& needle,
                             const char* label) {
    ASSERT_TRUE(common::AtomicWriteFile(path, bytes).ok());
    Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
    ASSERT_FALSE(decoded.ok()) << label;
    EXPECT_NE(decoded.status().message().find(needle), std::string::npos)
        << label << ": " << decoded.status().ToString();
  };

  std::string bad_magic = valid;
  bad_magic[0] ^= 0x5A;
  expect_rejected(bad_magic, "bad magic", "flipped magic byte");

  std::string bad_version = valid;
  bad_version[4] = 0x63;
  expect_rejected(bad_version, "version", "unknown version");

  std::string bad_crc = valid;
  bad_crc[bad_crc.size() / 2] ^= 0x5A;  // inside the block payload
  expect_rejected(bad_crc, "CRC mismatch", "flipped payload byte");

  expect_rejected(valid.substr(0, valid.size() - 3), "truncated",
                  "truncated block");

  // Atomic writes make partial blocks unreachable in practice, but the
  // decoder still refuses a header-only torn block.
  expect_rejected(valid.substr(0, 10), "corrupt block header",
                  "torn block header");
  std::remove(path.c_str());
}

TEST(RecorderTest, CrashDuringFlushLeavesPreviousEpisodesIntact) {
  // Threadsafe style re-executes the binary for the death statement, so the
  // fork is safe even with pool workers alive from earlier tests.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = ::testing::TempDir() + "/fastft_crash.ffr";
  std::remove(path.c_str());

  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  ASSERT_TRUE(FlushEvents(&stream, 0, {MakeEpisodeEvent(0, 0.25)}).ok());
  std::string before;
  ASSERT_TRUE(common::ReadFileToString(path, &before).ok());

  // The child dies at the fs/atomic_write kill site: its temp file is
  // complete but the rename never happens (KillMode::kExit == _Exit(137)).
  EXPECT_EXIT(
      {
        FaultInjector::ArmKill({{"fs/atomic_write", 0}}, KillMode::kExit);
        obs::RecordStream resumed = obs::RecordStream::Open(path, 1);
        (void)FlushEvents(&resumed, 1, {MakeEpisodeEvent(1, 0.5)});
      },
      ::testing::ExitedWithCode(137), "");

  // The pre-crash stream is byte-identical and still decodes to exactly
  // the episodes flushed before the kill.
  std::string after;
  ASSERT_TRUE(common::ReadFileToString(path, &after).ok());
  EXPECT_EQ(after, before);
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, std::vector<int32_t>{0});
  std::remove(path.c_str());
}

TEST(RecorderTest, EngineRecordingIsBitIdenticalOnOffAndAcrossThreads) {
  SyntheticSpec spec;
  spec.samples = 60;
  spec.features = 5;
  spec.seed = 5;
  Dataset dataset = MakeClassification(spec);

  EngineConfig config;
  config.episodes = 4;
  config.steps_per_episode = 4;
  config.cold_start_episodes = 2;
  config.seed = 17;

  auto run_once = [&](const std::string& record_path, int num_threads) {
    EngineConfig c = config;
    c.record_path = record_path;
    c.num_threads = num_threads;
    FastFtEngine engine(c);
    Result<EngineResult> run = engine.Run(dataset);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(run).ValueOrDie();
  };

  const std::string path1 = ::testing::TempDir() + "/fastft_rec_t1.ffr";
  const std::string path4 = ::testing::TempDir() + "/fastft_rec_t4.ffr";
  std::remove(path1.c_str());
  std::remove(path4.c_str());

  EngineResult off = run_once("", 1);
  EngineResult on1 = run_once(path1, 1);
  EngineResult on4 = run_once(path4, 4);

  // Recording never steers: scores and traces are exact across recording
  // on/off and thread counts.
  for (const EngineResult* other : {&on1, &on4}) {
    EXPECT_EQ(off.base_score, other->base_score);
    EXPECT_EQ(off.best_score, other->best_score);
    EXPECT_EQ(off.episode_best, other->episode_best);
    EXPECT_EQ(off.total_steps, other->total_steps);
    ASSERT_EQ(off.trace.size(), other->trace.size());
    for (size_t i = 0; i < off.trace.size(); ++i) {
      EXPECT_EQ(off.trace[i].reward, other->trace[i].reward);
      EXPECT_EQ(off.trace[i].performance, other->trace[i].performance);
      EXPECT_EQ(off.trace[i].novelty, other->trace[i].novelty);
    }
  }
  EXPECT_EQ(off.recorded_events, 0);
  EXPECT_GT(on1.recorded_events, 0);
  EXPECT_EQ(on1.recorded_dropped, 0);
  EXPECT_EQ(on1.recorded_events, on4.recorded_events);

  // The streams themselves are byte-identical at 1 and 4 threads.
  std::string stream1, stream4;
  ASSERT_TRUE(common::ReadFileToString(path1, &stream1).ok());
  ASSERT_TRUE(common::ReadFileToString(path4, &stream4).ok());
  EXPECT_EQ(stream1, stream4);

  // The decoded stream is an exact function of the run: one decision per
  // step, one boundary mark per episode, nothing dropped.
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes.size(),
            static_cast<size_t>(config.episodes));
  int64_t decisions = 0, episode_marks = 0;
  for (const obs::RecordEvent& e : decoded.value().events) {
    if (e.kind == obs::RecordEventKind::kDecision) ++decisions;
    if (e.kind == obs::RecordEventKind::kEpisode) ++episode_marks;
  }
  EXPECT_EQ(decisions, off.total_steps);
  EXPECT_EQ(episode_marks, config.episodes);
  EXPECT_EQ(decoded.value().TotalDropped(), 0);
  EXPECT_EQ(static_cast<int64_t>(decoded.value().events.size()),
            on1.recorded_events);

  // Decision provenance is populated, not defaulted: every head selection
  // saw the full candidate set and the reward decomposition adds up.
  for (const obs::RecordEvent& e : decoded.value().events) {
    if (e.kind != obs::RecordEventKind::kDecision) continue;
    EXPECT_GT(e.head.candidates, 0);
    EXPECT_GE(e.head.action, 0);
    EXPECT_LT(e.head.action, e.head.candidates);
    EXPECT_NEAR(e.reward, e.reward_performance + e.reward_novelty, 1e-12);
  }

  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(RecorderTest, ConcurrentRunsWriteTheirOwnStreams) {
  // Two recorded runs of different seeds, first alone, then overlapping on
  // two threads: events belong to the run that appended them, so each
  // overlapped run writes its solo stream byte for byte.
  SyntheticSpec spec;
  spec.samples = 60;
  spec.features = 5;
  spec.seed = 5;
  const Dataset dataset = MakeClassification(spec);
  const uint64_t seeds[2] = {17, 29};
  auto run = [&](int k, const std::string& record_path) {
    EngineConfig config;
    config.episodes = 6;
    config.steps_per_episode = 4;
    config.cold_start_episodes = 2;
    config.seed = seeds[k];
    config.record_path = record_path;
    Result<EngineResult> result = FastFtEngine(config).Run(dataset);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value().recorded_events : int64_t{-1};
  };
  auto path = [](const char* role, int k) {
    return ::testing::TempDir() + "/fastft_" + role + "_" + std::to_string(k) +
           ".ffr";
  };

  std::string solo_bytes[2];
  int64_t solo_events[2];
  for (int k = 0; k < 2; ++k) {
    solo_events[k] = run(k, path("solo", k));
    ASSERT_TRUE(
        common::ReadFileToString(path("solo", k), &solo_bytes[k]).ok());
    std::remove(path("solo", k).c_str());
  }
  ASSERT_NE(solo_bytes[0], solo_bytes[1]);

  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  int64_t overlap_events[2] = {-1, -1};
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&, k] {
      start.wait();
      overlap_events[k] = run(k, path("overlap", k));
    });
  }
  go.set_value();
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < 2; ++k) {
    std::string bytes;
    ASSERT_TRUE(common::ReadFileToString(path("overlap", k), &bytes).ok());
    EXPECT_EQ(overlap_events[k], solo_events[k]) << "run " << k;
    EXPECT_EQ(bytes.size(), solo_bytes[k].size()) << "run " << k;
    EXPECT_TRUE(bytes == solo_bytes[k]) << "run " << k << " stream differs";
    std::remove(path("overlap", k).c_str());
  }
}

TEST(RecorderTest, ValidateEngineConfigChecksRecorderKnobs) {
  EngineConfig config;
  config.record_path = "run.ffr";
  ASSERT_TRUE(ValidateEngineConfig(config).ok());

  // A directory is not a stream file.
  config.record_path = "runs/";
  Status dir = ValidateEngineConfig(config);
  ASSERT_FALSE(dir.ok());
  EXPECT_NE(dir.message().find("record_path"), std::string::npos);
}

}  // namespace
}  // namespace fastft
