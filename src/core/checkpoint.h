// Crash-safe engine snapshots (checkpoint/resume subsystem).
//
// A checkpoint is one EngineState (core/engine.h) serialized whole — the
// plain run state (cursors, running statistics, percentile and Fig. 14
// histories), the RNG stream, the cascading agents (or Q-cascade), the
// prioritized replay buffer with its priorities, both estimation networks
// with optimizer moments, and the accumulated EngineResult with its health
// ladder — wrapped in a versioned, checksummed envelope:
//
//   "FFCP" | u32 version | u64 config fingerprint | u64 payload size
//   | payload | u32 CRC-32(payload)
//
// Snapshots are taken at episode boundaries only. Everything inside an
// episode (feature space, prev_perf, per-step locals) is re-derived
// deterministically from the boundary state, so a run killed at ANY point
// and resumed from its last checkpoint replays the interrupted episode
// exactly and converges to the bit-identical final result — at any thread
// count (see DESIGN.md "Checkpoint & recovery" and "Engine loop").
//
// The fingerprint hashes the determinism-relevant EngineConfig knobs; it
// deliberately EXCLUDES `episodes` (a run checkpointed at episode k may be
// resumed with a longer horizon), thread counts, cache sizing, and
// trace/metrics/checkpoint plumbing — none of which affect scores.

#pragma once

#include <cstdint>
#include <string>

#include "common/serial.h"
#include "common/status.h"
#include "core/engine.h"

namespace fastft {

/// 64-bit hash of the determinism-relevant EngineConfig knobs (see header
/// comment for what is excluded). A checkpoint only restores into a config
/// with the identical fingerprint.
[[nodiscard]] uint64_t EngineConfigFingerprint(const EngineConfig& config);

/// Serializes the engine state into an envelope (header + payload +
/// CRC), ready to hand to WriteCheckpoint. Pure in-memory; cheap enough to
/// run at every episode boundary. `reserve_hint` pre-sizes the buffer —
/// pass the previous snapshot's size to skip geometric-growth copies.
[[nodiscard]] std::string SerializeEngineState(const EngineConfig& config,
                                               const EngineState& state,
                                               size_t reserve_hint = 0);

/// Atomically writes an envelope to `path` (parent directory is created if
/// missing; temp file + fsync + rename, so readers never observe a torn
/// checkpoint).
[[nodiscard]] Status WriteCheckpoint(const std::string& path,
                                     const std::string& envelope);

/// Reads, validates, and restores a checkpoint into `state`. Every
/// corruption class gets a descriptive Status — NotFound (no file, state
/// untouched), InvalidArgument (bad magic / version / fingerprint / CRC /
/// truncated or malformed payload) — and the state is then unspecified:
/// the caller must rebuild it before running fresh.
[[nodiscard]] Status RestoreEngineState(const std::string& path,
                                        const EngineConfig& config,
                                        EngineState* state);

}  // namespace fastft
