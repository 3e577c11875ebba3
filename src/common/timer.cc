#include "common/timer.h"

#include <chrono>

namespace fastft {

namespace obs::internal {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())  // fastft-analyze: allow(nondeterminism): the tree's one clock read; timings are reported, never scored
          .count());
}

}  // namespace obs::internal

}  // namespace fastft
