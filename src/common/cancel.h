// Cooperative cancellation / deadline watchdog.
//
// A DeadlineToken is owned by the engine run and threaded (by pointer) into
// the long-running loops: the episode/step boundaries in Engine::Run and
// the per-fold / per-candidate lambdas inside Evaluator batches. Expired()
// is cheap enough to call per work item; once it reports true it stays
// true for the rest of the run, so every observer sees a consistent
// decision and the engine can wind down at the next boundary — emitting a
// final checkpoint and a valid partial report instead of dying mid-write.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/timer.h"

namespace fastft {
namespace common {

class DeadlineToken {
 public:
  /// A token that expires only through Cancel().
  DeadlineToken() = default;
  /// Arms a wall-clock budget measured from construction (0 disables the
  /// budget) and polls `external` (may be null), a kill switch such as a
  /// flag flipped by a signal handler or controlling thread; the flag must
  /// outlive the token.
  DeadlineToken(int64_t budget_ms, const std::atomic<bool>* external)
      : budget_ms_(budget_ms), external_(external) {}
  DeadlineToken(const DeadlineToken&) = delete;
  DeadlineToken& operator=(const DeadlineToken&) = delete;

  /// Requests cancellation directly.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once the budget is exceeded, Cancel() was called, or the external
  /// flag is set. Latches: never reverts to false.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (external_ != nullptr &&
        external_->load(std::memory_order_relaxed)) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (budget_ms_ > 0 &&
        timer_.Seconds() * 1000.0 >= static_cast<double>(budget_ms_)) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  WallTimer timer_;
  int64_t budget_ms_ = 0;
  const std::atomic<bool>* external_ = nullptr;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace common
}  // namespace fastft
