// Wall-clock timing utilities for the runtime experiments (Tables II, Fig. 9/10).

#pragma once

#include <chrono>
#include <map>
#include <string>

#include "common/thread_annotations.h"

namespace fastft {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }
  // Measuring wall time is this class's purpose; every other call site must
  // go through WallTimer so the lint can keep clock reads out of scoring
  // paths.
  void Restart() { start_ = Clock::now(); }  // fastft-lint: allow(nondeterminism)
  /// Seconds elapsed since construction / last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();  // fastft-lint: allow(nondeterminism)
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed seconds into named buckets; used by the engine to
/// report the Optimization / Estimation / Evaluation breakdown of Table II.
///
/// Thread-safe: Add may be called concurrently (e.g. from pool workers
/// timing their share of a parallel evaluation) without losing updates.
/// Note the Table II convention the engine follows: each bucket is timed
/// once on the coordinating thread as wall-clock, so parallel fan-out
/// *shrinks* a bucket rather than summing per-worker CPU time — worker code
/// must not re-add time the coordinator already measures.
class TimeBuckets {
 public:
  TimeBuckets() = default;
  // Copyable despite the mutex (EngineResult carries one by value); only
  // the bucket map is copied.
  TimeBuckets(const TimeBuckets& other);
  TimeBuckets& operator=(const TimeBuckets& other);

  void Add(const std::string& bucket, double seconds);
  double Get(const std::string& bucket) const;
  double Total() const;
  void Clear();
  std::map<std::string, double> buckets() const;

 private:
  mutable common::Mutex mu_;
  std::map<std::string, double> buckets_ FASTFT_GUARDED_BY(mu_);
};

}  // namespace fastft
