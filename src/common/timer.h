// The clock read and a stopwatch. The engine's Table II phase split is not
// kept here: phases are trace spans that sum into EngineResult::times
// (common/trace.h, core/engine.h).

#pragma once

#include <cstdint>

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

}  // namespace fastft
