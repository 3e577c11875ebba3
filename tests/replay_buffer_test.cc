// Tests for the prioritized replay buffer (Eq. 10).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/rng.h"
#include "common/serial.h"
#include "core/agents.h"
#include "core/replay_buffer.h"
#include "core/state.h"

namespace fastft {
namespace {

Transition MakeTransition(double reward) {
  Transition t;
  t.reward = reward;
  t.performance = reward;
  t.tokens = {1, 2, 3};
  return t;
}

TEST(ReplayBufferTest, FillsToCapacity) {
  PrioritizedReplayBuffer buffer(4);
  EXPECT_EQ(buffer.capacity(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(buffer.Full());
    buffer.Add(MakeTransition(i), 1.0);
  }
  EXPECT_TRUE(buffer.Full());
  EXPECT_EQ(buffer.size(), 4);
}

TEST(ReplayBufferTest, EvictsOldestWhenFull) {
  PrioritizedReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeTransition(i), 1.0);
  buffer.Add(MakeTransition(99), 1.0);  // replaces slot 0 (oldest)
  EXPECT_EQ(buffer.size(), 3);
  EXPECT_DOUBLE_EQ(buffer.Get(0).reward, 99.0);
  EXPECT_DOUBLE_EQ(buffer.Get(1).reward, 1.0);
}

TEST(ReplayBufferTest, PrioritySamplingFavorsHighTd) {
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(MakeTransition(0), 0.001);
  buffer.Add(MakeTransition(1), 0.001);
  buffer.Add(MakeTransition(2), 10.0);
  buffer.Add(MakeTransition(3), 0.001);
  Rng rng(5);
  int hits = 0;
  const int draws = 2000;
  for (int i = 0; i < draws; ++i) {
    hits += (buffer.SampleIndex(&rng, /*prioritized=*/true) == 2);
  }
  EXPECT_GT(hits, draws * 0.9);
}

TEST(ReplayBufferTest, UniformSamplingIgnoresPriority) {
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(MakeTransition(0), 0.001);
  buffer.Add(MakeTransition(1), 100.0);
  buffer.Add(MakeTransition(2), 0.001);
  buffer.Add(MakeTransition(3), 0.001);
  Rng rng(6);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[buffer.SampleIndex(&rng, /*prioritized=*/false)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(ReplayBufferTest, NegativePrioritiesUseMagnitude) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0), -10.0);  // |.| = 10
  buffer.Add(MakeTransition(1), 0.001);
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 10.0);
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    hits += (buffer.SampleIndex(&rng, true) == 0);
  }
  EXPECT_GT(hits, 900);
}

TEST(ReplayBufferTest, ZeroPriorityFlooredNotDropped) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0), 0.0);
  EXPECT_GT(buffer.Priority(0), 0.0);
}

TEST(ReplayBufferTest, UpdatePriorityChangesSampling) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0), 5.0);
  buffer.Add(MakeTransition(1), 5.0);
  buffer.UpdatePriority(0, 0.0001);
  Rng rng(8);
  int hits1 = 0;
  for (int i = 0; i < 1000; ++i) hits1 += (buffer.SampleIndex(&rng, true) == 1);
  EXPECT_GT(hits1, 900);
}

TEST(ReplayBufferTest, UniformSampleIndicesDistinct) {
  PrioritizedReplayBuffer buffer(8);
  for (int i = 0; i < 8; ++i) buffer.Add(MakeTransition(i), 1.0);
  Rng rng(9);
  std::vector<int> sample = buffer.UniformSampleIndices(5, &rng);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
  // Requesting more than size clamps.
  EXPECT_EQ(buffer.UniformSampleIndices(100, &rng).size(), 8u);
}

TEST(ReplayBufferTest, CapacityOneAlwaysHoldsNewest) {
  PrioritizedReplayBuffer buffer(1);
  EXPECT_EQ(buffer.capacity(), 1);
  for (int i = 0; i < 5; ++i) {
    buffer.Add(MakeTransition(i), 1.0 + i);
    EXPECT_EQ(buffer.size(), 1);
    EXPECT_DOUBLE_EQ(buffer.Get(0).reward, static_cast<double>(i));
  }
  Rng rng(3);
  // The single slot is the only possible draw, prioritized or not.
  EXPECT_EQ(buffer.SampleIndex(&rng, true), 0);
  EXPECT_EQ(buffer.SampleIndex(&rng, false), 0);
  EXPECT_EQ(buffer.UniformSampleIndices(4, &rng).size(), 1u);
}

TEST(ReplayBufferTest, AllZeroPrioritiesStillSampleEverySlot) {
  PrioritizedReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeTransition(i), 0.0);
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 600; ++i) seen.insert(buffer.SampleIndex(&rng, true));
  // The priority floor keeps zero-TD transitions reachable (no div-by-zero,
  // no starved slot).
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ReplayBufferTest, SamplingMoreThanStoredClampsToSize) {
  PrioritizedReplayBuffer buffer(8);
  buffer.Add(MakeTransition(0), 1.0);
  buffer.Add(MakeTransition(1), 1.0);
  Rng rng(5);
  std::vector<int> sample = buffer.UniformSampleIndices(100, &rng);
  EXPECT_EQ(sample.size(), 2u);  // only 2 of 8 slots are filled
  for (int idx : sample) EXPECT_LT(idx, buffer.size());
}

TEST(ReplayBufferTest, EvictionReplacesStalePriority) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0), 100.0);
  buffer.Add(MakeTransition(1), 1.0);
  buffer.UpdatePriority(0, 50.0);
  // Slot 0 is the oldest; the next Add overwrites both its transition and
  // its (updated) priority.
  buffer.Add(MakeTransition(2), 2.0);
  EXPECT_DOUBLE_EQ(buffer.Get(0).reward, 2.0);
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 2.0);
  // Priority updates after the eviction target the new occupant.
  buffer.UpdatePriority(0, 7.0);
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 7.0);
  EXPECT_DOUBLE_EQ(buffer.Priority(1), 1.0);
}

TEST(ReplayBufferDeathTest, OutOfRangeAccessChecks) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0), 1.0);
  EXPECT_DEATH(buffer.Get(5), "Check failed");
}

TEST(ReplayBufferTest, NonFinitePrioritiesFloorToMinimum) {
  // std::max(std::abs(NaN), floor) is NaN — a NaN TD error used to poison
  // the priority vector and crash SampleDiscrete's non-negative check.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(MakeTransition(0), kNaN);
  buffer.Add(MakeTransition(1), kInf);
  buffer.Add(MakeTransition(2), -kInf);
  buffer.Add(MakeTransition(3), 1.0);
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 1e-4);
  EXPECT_DOUBLE_EQ(buffer.Priority(1), 1e-4);
  EXPECT_DOUBLE_EQ(buffer.Priority(2), 1e-4);
  EXPECT_DOUBLE_EQ(buffer.Priority(3), 1.0);

  buffer.UpdatePriority(3, kNaN);
  EXPECT_DOUBLE_EQ(buffer.Priority(3), 1e-4);

  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const int idx = buffer.SampleIndex(&rng, /*prioritized=*/true);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, buffer.size());
  }
}

TEST(ReplayBufferTest, NanRewardThroughPolicyPriorityPathStaysSampleable) {
  // The engine's priority path verbatim: priority = policy->TdError(t),
  // then Add + prioritized SampleIndex + UpdatePriority. A NaN reward makes
  // the TD error NaN; sampling must survive it.
  AgentConfig config;
  CascadingAgents policy(config);
  Transition t = MakeTransition(0.0);
  t.reward = std::numeric_limits<double>::quiet_NaN();
  t.state.assign(kStateDim, 0.25);
  t.next_state.assign(kStateDim, 0.5);
  const double priority = policy.TdError(t);
  ASSERT_TRUE(std::isnan(priority));

  PrioritizedReplayBuffer buffer(4);
  buffer.Add(std::move(t), priority);
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 1e-4);
  Rng rng(23);
  const int index = buffer.SampleIndex(&rng, /*prioritized=*/true);
  EXPECT_EQ(index, 0);
  buffer.UpdatePriority(index, policy.TdError(buffer.Get(index)));
  EXPECT_DOUBLE_EQ(buffer.Priority(0), 1e-4);
}

TEST(ReplayBufferTest, LoadStateRejectsOverflowingMatrixHeader) {
  // A 2^31 x 2^31 matrix header makes rows * cols * sizeof(double) wrap to
  // zero in u64, so the remaining() bound check used to pass and the int
  // casts handed the Matrix ctor negative dimensions. The dimension cap must
  // fail the read cleanly instead.
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(MakeTransition(1.0), 1.0);
  common::BinaryWriter w;
  buffer.SaveState(&w);

  std::string payload = w.buffer();
  // Layout: capacity u32, count u32, next_slot u32, then the first
  // transition's head_inputs matrix header (rows u32, cols u32).
  ASSERT_GE(payload.size(), 20u);
  const uint32_t huge = 1u << 31;
  std::memcpy(payload.data() + 12, &huge, sizeof(huge));
  std::memcpy(payload.data() + 16, &huge, sizeof(huge));

  PrioritizedReplayBuffer restored(4);
  common::BinaryReader r(payload);
  restored.LoadState(&r);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("matrix shape"), std::string::npos)
      << r.status().ToString();
  // The failed load must leave the target buffer untouched.
  EXPECT_EQ(restored.size(), 0);
}

}  // namespace
}  // namespace fastft
