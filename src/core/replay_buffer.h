// Prioritized experience replay (paper §III-D, Eq. 10).
//
// Memory unit m_i = <s, a, r, s', a', T, v>. Priorities are TD errors; the
// sampling distribution is B_i = P_i / Σ P_k. The paper uses a deliberately
// small buffer (S = 16) so critical memories stay fresh. Uniform sampling is
// the −RCT ablation.

#pragma once

#include <vector>

#include "common/serial.h"
#include "nn/matrix.h"

namespace fastft {

class Rng;

/// One exploration step's memory: the cascading agents' inputs/choices plus
/// reward, state pair, transformation tokens, and achieved performance.
struct Transition {
  // Head agent: one input row per candidate cluster.
  nn::Matrix head_inputs;
  int head_action = -1;
  // Operation agent: single input row, action = op index.
  nn::Matrix op_input;
  int op_action = -1;
  // Tail agent (binary ops only): one input row per candidate cluster.
  nn::Matrix tail_inputs;
  int tail_action = -1;

  std::vector<double> state;       // Rep(F̂) before the step
  std::vector<double> next_state;  // Rep(F̂) after the step
  /// Head-candidate inputs at the *next* state (Q-learning targets).
  nn::Matrix next_head_inputs;

  double reward = 0.0;
  std::vector<int> tokens;    // T_i token sequence
  double performance = 0.0;   // v_i (evaluated or predicted)
};

class PrioritizedReplayBuffer {
 public:
  explicit PrioritizedReplayBuffer(int capacity = 16)
      : capacity_(capacity) {}

  /// Inserts with |priority| (floored); evicts the oldest entry when full.
  void Add(Transition transition, double priority);

  int size() const { return static_cast<int>(items_.size()); }
  int capacity() const { return capacity_; }
  bool Full() const { return size() >= capacity_; }

  const Transition& Get(int index) const;

  /// Samples an index ~ B_i = P_i / Σ P_k (or uniformly).
  int SampleIndex(Rng* rng, bool prioritized = true) const;

  void UpdatePriority(int index, double priority);
  double Priority(int index) const;

  /// Uniform sample of up to `count` distinct indices (evaluation-component
  /// finetuning draws uniformly per Algorithms 1-2).
  std::vector<int> UniformSampleIndices(int count, Rng* rng) const;

  /// Snapshots contents, priorities, and the ring cursor.
  void SaveState(common::BinaryWriter* writer) const;
  /// Restores a SaveState payload; the buffer's capacity must match.
  void LoadState(common::BinaryReader* reader);

 private:
  int capacity_;
  std::vector<Transition> items_;
  std::vector<double> priorities_;
  int next_slot_ = 0;  // ring cursor once full
};

}  // namespace fastft

