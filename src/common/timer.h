// Wall-clock timing utilities for the runtime experiments (Tables II, Fig. 9/10).

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"

namespace fastft {

namespace obs::internal {

/// Monotonic clock read in nanoseconds (absolute; the tracer and the
/// recorder rebase onto the StartTracing origin). The tree's only clock
/// read: WallTimer, log timestamps and trace spans all go through it, so
/// the analyzer can keep clock reads out of scoring paths.
uint64_t NowNs();

}  // namespace obs::internal

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }
  void Restart() { start_ns_ = obs::internal::NowNs(); }
  /// Seconds elapsed since construction / last Restart().
  double Seconds() const {
    return static_cast<double>(obs::internal::NowNs() - start_ns_) / 1e9;
  }

 private:
  uint64_t start_ns_ = 0;
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
