// Tests of the fastft::obs flight recorder: ring semantics with exact
// dropped-event counters (including concurrent multi-thread emission), the
// versioned on-disk stream (round-trip, corruption rejection, resume
// truncation, crash-during-write atomicity), the engine integration
// (record_path wiring + recording-on/off bit-identity at 1 and 4 threads),
// and the recorder knobs of ValidateEngineConfig.

#include "common/recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/fs.h"
#include "common/trace.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

// Every test stops recording on exit so a failing assertion cannot leave
// the recorder armed for unrelated tests in this binary.
class RecorderTest : public ::testing::Test {
 protected:
  ~RecorderTest() override {
    obs::StopRecording();
    obs::DrainRecordedEvents();  // leave empty rings for the next test
  }
};

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

TEST_F(RecorderTest, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::RecordingActive());
  obs::Emit(MakeDecisionEvent(0));
  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  EXPECT_TRUE(drained.events.empty());
  EXPECT_EQ(drained.TotalDropped(), 0);
}

TEST_F(RecorderTest, StopFreezesRings) {
  obs::StartRecording();
  obs::Emit(MakeDecisionEvent(0));
  obs::StopRecording();
  obs::Emit(MakeDecisionEvent(1));  // after stop: must not land
  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  ASSERT_EQ(drained.events.size(), 1u);
  EXPECT_EQ(drained.events[0].step, 0);
}

TEST_F(RecorderTest, StreamRoundTripsEveryEventKind) {
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
  obs::StartRecording();
  for (const obs::RecordEvent& e : emitted) obs::Emit(e);
  obs::StopRecording();
  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  ASSERT_EQ(drained.events.size(), emitted.size());
  EXPECT_EQ(drained.TotalDropped(), 0);

  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  ASSERT_TRUE(stream.FlushEpisode(1, drained).ok());
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

TEST_F(RecorderTest, RingDropsOldestWithExactCounter) {
  obs::RecorderOptions options;
  options.ring_capacity = 4;
  obs::StartRecording(options);
  for (int i = 0; i < 10; ++i) obs::Emit(MakeDecisionEvent(i));
  obs::StopRecording();

  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  ASSERT_EQ(drained.events.size(), 4u);
  // Oldest-first retention of the newest four.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(drained.events[i].step, 6 + i);
  ASSERT_EQ(drained.dropped_by_tid.size(), 1u);
  EXPECT_EQ(drained.dropped_by_tid.begin()->second, 6);
  EXPECT_EQ(drained.TotalDropped(), 6);

  // Drain reset the ring and its counter.
  obs::DrainedEvents again = obs::DrainRecordedEvents();
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.TotalDropped(), 0);
}

TEST_F(RecorderTest, ConcurrentEmissionKeepsExactDroppedCounters) {
  constexpr int kThreads = 4;
  constexpr int kCapacity = 16;
  obs::RecorderOptions options;
  options.ring_capacity = kCapacity;
  obs::StartRecording(options);

  // Thread k emits 100+k events so every per-thread dropped total is
  // distinct: kept = 16, dropped = 84 + k.
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([k] {
      for (int i = 0; i < 100 + k; ++i) {
        obs::RecordEvent e = MakeDecisionEvent(i);
        e.global_step = k;  // marks the emitting thread
        obs::Emit(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  obs::StopRecording();

  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  ASSERT_EQ(drained.events.size(),
            static_cast<size_t>(kThreads * kCapacity));
  ASSERT_EQ(drained.dropped_by_tid.size(), static_cast<size_t>(kThreads));
  std::vector<int64_t> dropped;
  for (const auto& [tid, n] : drained.dropped_by_tid) dropped.push_back(n);
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<int64_t>{84, 85, 86, 87}));
  EXPECT_EQ(drained.TotalDropped(), 84 + 85 + 86 + 87);

  // Each thread's surviving window is exactly its newest kCapacity events,
  // oldest first.
  for (int k = 0; k < kThreads; ++k) {
    std::vector<int> steps;
    for (const obs::RecordEvent& e : drained.events) {
      if (e.global_step == k) steps.push_back(e.step);
    }
    ASSERT_EQ(steps.size(), static_cast<size_t>(kCapacity)) << "thread " << k;
    for (int i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(steps[i], (100 + k) - kCapacity + i) << "thread " << k;
    }
  }

  // The decoded stream's droppedEvents section reconciles exactly with the
  // emission arithmetic above — the counters survive the disk round-trip.
  const std::string path = ::testing::TempDir() + "/fastft_dropped.ffr";
  std::remove(path.c_str());
  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  ASSERT_TRUE(stream.FlushEpisode(0, drained).ok());
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().dropped_by_tid, drained.dropped_by_tid);
  EXPECT_EQ(decoded.value().TotalDropped(), drained.TotalDropped());
  std::remove(path.c_str());
}

TEST_F(RecorderTest, DroppedCountersAreKeyedByTheTraceAndLogThreadId) {
  // The recorder, the tracer and FASTFT_LOG share one thread registry, so a
  // dropped-counter key names the same thread as its trace `tid` and its
  // log `T<n>` — even when threads emit in the opposite order to the one
  // they registered in.
  constexpr int kCapacity = 8;
  obs::TraceOptions trace_options;
  trace_options.ring_capacity = kCapacity;
  obs::StartTracing(trace_options);
  obs::RecorderOptions options;
  options.ring_capacity = kCapacity;
  obs::StartRecording(options);

  // Thread k emits kCapacity + 3 + 2k events, so it drops 3 + 2k.
  auto emit = [](int k) {
    FASTFT_TRACE_SPAN("test/emitter");
    for (int i = 0; i < kCapacity + 3 + 2 * k; ++i) {
      obs::Emit(MakeDecisionEvent(i));
    }
  };
  int tid_a = -1;
  int tid_b = -1;
  std::promise<void> a_registered;
  std::promise<void> a_go;
  std::thread a([&] {
    tid_a = obs::RegisterThisThread("recorder-test-a");
    EXPECT_EQ(obs::CurrentThreadId(), tid_a);
    a_registered.set_value();
    a_go.get_future().wait();
    emit(0);
  });
  a_registered.get_future().wait();
  std::thread b([&] {
    tid_b = obs::RegisterThisThread("recorder-test-b");
    EXPECT_EQ(obs::CurrentThreadId(), tid_b);
    emit(1);  // B emits before A
  });
  b.join();
  a_go.set_value();
  a.join();
  obs::StopRecording();
  obs::StopTracing();

  ASSERT_LT(tid_a, tid_b);
  obs::DrainedEvents drained = obs::DrainRecordedEvents();
  EXPECT_EQ(drained.dropped_by_tid, (std::map<int, int64_t>{{tid_a, 3},
                                                            {tid_b, 5}}));
  obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  ASSERT_GT(snapshot.threads.size(), static_cast<size_t>(tid_b));
  for (auto [tid, name] :
       {std::pair<int, const char*>{tid_a, "recorder-test-a"},
        {tid_b, "recorder-test-b"}}) {
    const obs::ThreadTrace& trace = snapshot.threads[tid];
    EXPECT_EQ(trace.tid, tid);
    EXPECT_EQ(trace.thread_name, name);
    ASSERT_EQ(trace.events.size(), 1u) << name;
    EXPECT_STREQ(trace.events[0].name, "test/emitter");
  }
}

TEST_F(RecorderTest, ResumeKeepsBlocksBeforeTheCursor) {
  const std::string path = ::testing::TempDir() + "/fastft_resume.ffr";
  std::remove(path.c_str());

  {
    obs::RecordStream stream = obs::RecordStream::Open(path, 0);
    for (int episode = 0; episode < 4; ++episode) {
      obs::DrainedEvents drained;
      drained.events.push_back(MakeEpisodeEvent(episode, 0.1 * episode));
      ASSERT_TRUE(stream.FlushEpisode(episode, drained).ok());
    }
    EXPECT_EQ(stream.episode_blocks(), 4);
  }

  // Resume at episode 2: blocks 0 and 1 survive, 2 and 3 (the interrupted
  // episode and anything stale after it) are dropped and re-flushed.
  obs::RecordStream resumed = obs::RecordStream::Open(path, 2);
  EXPECT_EQ(resumed.episode_blocks(), 2);
  obs::DrainedEvents replayed;
  replayed.events.push_back(MakeEpisodeEvent(2, 42.0));
  ASSERT_TRUE(resumed.FlushEpisode(2, replayed).ok());

  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, (std::vector<int32_t>{0, 1, 2}));
  ASSERT_EQ(decoded.value().events.size(), 3u);
  // Episode 2's block is the re-flushed one, not the pre-kill original.
  EXPECT_EQ(decoded.value().events[2].best_score, 42.0);

  // A fresh (non-resume) open discards the whole existing stream.
  obs::RecordStream fresh = obs::RecordStream::Open(path, 0);
  EXPECT_EQ(fresh.episode_blocks(), 0);
  obs::DrainedEvents first;
  first.events.push_back(MakeEpisodeEvent(0, 1.0));
  ASSERT_TRUE(fresh.FlushEpisode(0, first).ok());
  decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, std::vector<int32_t>{0});
  std::remove(path.c_str());
}

TEST_F(RecorderTest, UnreadableStreamIsDiscardedOnResume) {
  const std::string path = ::testing::TempDir() + "/fastft_garbage.ffr";
  ASSERT_TRUE(common::AtomicWriteFile(path, "this is not a record stream").ok());

  // Recording must never block a resume: the garbage is dropped silently
  // and the stream restarts from the resume cursor.
  obs::RecordStream stream = obs::RecordStream::Open(path, 3);
  EXPECT_EQ(stream.episode_blocks(), 0);
  obs::DrainedEvents drained;
  drained.events.push_back(MakeEpisodeEvent(3, 0.5));
  ASSERT_TRUE(stream.FlushEpisode(3, drained).ok());
  Result<obs::DecodedRecordStream> decoded = obs::ReadRecordStream(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().episodes, std::vector<int32_t>{3});
  std::remove(path.c_str());
}

TEST_F(RecorderTest, CorruptStreamsAreRejectedWithDiagnostics) {
  const std::string path = ::testing::TempDir() + "/fastft_corrupt.ffr";
  std::remove(path.c_str());
  EXPECT_FALSE(obs::ReadRecordStream(path).ok()) << "missing file";

  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  obs::DrainedEvents drained;
  drained.events.push_back(MakeDecisionEvent(0));
  ASSERT_TRUE(stream.FlushEpisode(0, drained).ok());
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

TEST_F(RecorderTest, CrashDuringFlushLeavesPreviousEpisodesIntact) {
  // Threadsafe style re-executes the binary for the death statement, so the
  // fork is safe even with pool workers alive from earlier tests.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = ::testing::TempDir() + "/fastft_crash.ffr";
  std::remove(path.c_str());

  obs::RecordStream stream = obs::RecordStream::Open(path, 0);
  obs::DrainedEvents episode0;
  episode0.events.push_back(MakeEpisodeEvent(0, 0.25));
  ASSERT_TRUE(stream.FlushEpisode(0, episode0).ok());
  std::string before;
  ASSERT_TRUE(common::ReadFileToString(path, &before).ok());

  // The child dies at the fs/atomic_write kill site: its temp file is
  // complete but the rename never happens (KillMode::kExit == _Exit(137)).
  EXPECT_EXIT(
      {
        FaultInjector::ArmKill({{"fs/atomic_write", 0}}, KillMode::kExit);
        obs::RecordStream resumed = obs::RecordStream::Open(path, 1);
        obs::DrainedEvents episode1;
        episode1.events.push_back(MakeEpisodeEvent(1, 0.5));
        (void)resumed.FlushEpisode(1, episode1);
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

TEST_F(RecorderTest, EngineRecordingIsBitIdenticalOnOffAndAcrossThreads) {
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

TEST_F(RecorderTest, ValidateEngineConfigChecksRecorderKnobs) {
  EngineConfig config;
  config.record_path = "run.ffr";
  ASSERT_TRUE(ValidateEngineConfig(config).ok());

  // A directory is not a stream file.
  config.record_path = "runs/";
  Status dir = ValidateEngineConfig(config);
  ASSERT_FALSE(dir.ok());
  EXPECT_NE(dir.message().find("record_path"), std::string::npos);

  // Non-positive ring capacity is rejected while recording...
  config.record_path = "run.ffr";
  for (int capacity : {0, -16384}) {
    config.record_ring_capacity = capacity;
    Status bad = ValidateEngineConfig(config);
    ASSERT_FALSE(bad.ok()) << capacity;
    EXPECT_NE(bad.message().find("record_ring_capacity"), std::string::npos);
  }
  config.record_ring_capacity = 1;
  EXPECT_TRUE(ValidateEngineConfig(config).ok());

  // ...but irrelevant when recording is off.
  config.record_path.clear();
  config.record_ring_capacity = 0;
  EXPECT_TRUE(ValidateEngineConfig(config).ok());
}

}  // namespace
}  // namespace fastft
