// Decision-level flight recorder — the fastft::obs provenance layer.
//
// The span tracer (common/trace.h) answers *where time goes*; this recorder
// answers *why the agent chose what it chose*. Per exploration step the
// engine emits one compact decision event carrying the full provenance of
// that step: candidate-set sizes and the chosen / runner-up action scores of
// every cascading agent, the novelty score and the decayed-reward
// decomposition of Eq. 6 (performance delta, centered novelty bonus, the
// ε_i decay weight), the replay priorities touched, and the annealed
// exploration rate. Health-ladder trips and fault events interleave in the
// same stream, so an offline reader (tools/fastft_inspect) can reconstruct
// the exploration dynamics of a run without re-running it.
//
// Design (see DESIGN.md "Observability"):
//   * Recording never steers: every recorded value is a copy of a number
//     the engine computed anyway. Scores, reports, and traces are
//     bit-identical with recording on or off, at any thread count.
//   * Events belong to the run: the engine appends each one, on the thread
//     that called Run(), to the RecordStream it opened, which buffers the
//     current episode. Nothing is process-wide, so two runs recording at
//     the same time write two independent streams, and nothing is dropped.
//   * The on-disk stream is a versioned binary envelope on the
//     common/serial.h writer: an "FFRC" header followed by per-episode
//     blocks, each CRC-32-guarded and written through the fs atomic-write
//     path. A crash leaves the blocks of completed episodes intact.
//   * Checkpoint-aware resume: RecordStream::Open(path, resume_episode)
//     keeps only the blocks before the resume cursor (a killed run replays
//     its interrupted episode), so kill → resume produces ONE coherent
//     stream covering every episode exactly once.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fastft {
namespace obs {

/// Stream format version written by RecordStream (bumped on any layout
/// change; the decoder rejects versions it does not know).
inline constexpr uint32_t kRecordStreamVersion = 1;

enum class RecordEventKind : uint8_t {
  /// One exploration step's full decision provenance.
  kDecision = 1,
  /// A guard trip (injected fault or non-finite output) at `site`.
  kFault = 2,
  /// A health-ladder transition (quarantine / recovery / probe) at `site`.
  kHealth = 3,
  /// Episode boundary: best-so-far score and replay-buffer fill.
  kEpisode = 4,
};

const char* RecordEventKindName(RecordEventKind kind);

/// One cascading agent's selection: how many candidates it saw, what it
/// picked, and the scores of the pick and the best alternative. Scores are
/// the agent's raw selection scores (actor logits / Q-values), copied from
/// the forward pass the selection already ran.
struct AgentDecision {
  int32_t action = -1;      // -1 = this agent did not act (unary-op tail)
  int32_t candidates = 0;   // candidate-set size (0 when the agent sat out)
  double chosen_score = 0.0;
  /// Best score among the non-chosen candidates; NaN with < 2 candidates.
  double runner_up_score = 0.0;
};

/// One recorded event. kDecision fills the decision block; kFault/kHealth
/// fill `site`/`detail`; kEpisode fills episode-level fields. Unused fields
/// stay at their defaults and serialize as such (the format is fixed-layout
/// per kind, so the decoder never guesses).
struct RecordEvent {
  RecordEventKind kind = RecordEventKind::kDecision;
  int32_t episode = 0;
  int32_t step = 0;
  int64_t global_step = 0;

  // --- kDecision ---
  AgentDecision head, op, tail;
  double epsilon = 0.0;          // annealed random-action probability
  double novelty = 0.0;          // normalized novelty score of the step
  double predicted = 0.0;        // performance-predictor estimate (0 if off)
  double performance = 0.0;      // v_j actually used as feedback
  double reward = 0.0;           // shaped reward handed to the agents
  double reward_performance = 0.0;  // v_j − v_{j−1} component
  double reward_novelty = 0.0;   // ε_i · (novelty − running mean) component
  double novelty_weight = 0.0;   // ε_i (the Eq. 6 decay weight)
  bool downstream_evaluated = false;
  bool generated = false;        // the step added at least one new column
  double priority_added = 0.0;   // |TD error| at insertion
  double priority_updated = 0.0; // priority after the replayed optimize
  int32_t replay_sampled = -1;   // replay index optimized this step
  int32_t replay_size = 0;       // buffer fill after insertion

  // --- kFault / kHealth ---
  /// Site name ("predictor/predict", "health/quarantine", ...); also
  /// carries the component name for health events via `detail`.
  std::string site;
  std::string detail;

  // --- kEpisode ---
  double best_score = 0.0;
};

/// A decoded stream: every event of every block, in block order, plus the
/// per-block provenance the envelope carries.
struct DecodedRecordStream {
  uint32_t version = 0;
  /// Episodes in block order (one block per episode flush).
  std::vector<int32_t> episodes;
  std::vector<RecordEvent> events;
  /// Dropped-event totals, per thread id, summed over blocks; the inspector
  /// exports them as "droppedEvents". Version 1 keeps the table, but
  /// RecordStream never drops an event, so it writes the table empty.
  std::map<int, int64_t> dropped_by_tid;

  int64_t TotalDropped() const {
    int64_t total = 0;
    for (const auto& [tid, dropped] : dropped_by_tid) total += dropped;
    return total;
  }
};

/// Reads and validates a stream written by RecordStream. Descriptive
/// Status on a missing file, foreign magic, unknown version, or a corrupt
/// block (CRC / truncation — should not occur with atomic writes).
Result<DecodedRecordStream> ReadRecordStream(const std::string& path);

/// Append-oriented writer with an episode cursor. The file is rewritten
/// atomically (temp + fsync + rename) at every flush, so readers — and a
/// crash at ANY point — observe a complete, decodable stream containing
/// exactly the episodes flushed so far.
class RecordStream {
 public:
  /// Opens `path` for a run starting at `resume_episode` (0 = fresh run:
  /// any existing stream is discarded). On resume, the existing stream is
  /// decoded and the blocks of episodes < resume_episode are retained —
  /// the interrupted episode is about to be replayed, so its partial
  /// block (if any) is dropped. An unreadable existing stream is discarded
  /// with an OK open (recording must never block a resume).
  static RecordStream Open(const std::string& path, int resume_episode);

  /// Buffers one event of the current episode; nothing reaches the disk
  /// before FlushEpisode. An episode that is never flushed (an interrupted
  /// one, which resume replays) dies with the stream.
  void Append(const RecordEvent& event) { pending_.push_back(event); }

  /// Events appended since the last flush.
  int64_t pending_events() const {
    return static_cast<int64_t>(pending_.size());
  }

  /// Serializes the pending events as one episode block (with an empty
  /// dropped table) and atomically rewrites the stream. Episodes must be
  /// flushed in strictly increasing order within a run.
  Status FlushEpisode(int32_t episode);

  const std::string& path() const { return path_; }
  /// Episodes currently in the stream (retained + flushed).
  int64_t episode_blocks() const { return episode_blocks_; }

 private:
  RecordStream(std::string path, std::string retained, int64_t blocks)
      : path_(std::move(path)),
        buffer_(std::move(retained)),
        episode_blocks_(blocks) {}

  std::string path_;
  std::string buffer_;  // header + every retained/flushed block
  int64_t episode_blocks_ = 0;
  std::vector<RecordEvent> pending_;  // the current episode's events
};

}  // namespace obs
}  // namespace fastft
