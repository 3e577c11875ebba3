// fixture-dest: src/core/trigger_pool_fanout.cc
// Must trigger: pool-fanout (a second fan-out level outside the evaluator:
// the shared pool named and ParallelFor called from src/core).
#include <cstdint>

namespace fastft {

int FanOut(int n) {
  common::ParallelFor(0, n, 4, [](int64_t) {});
  return common::ThreadPool::Shared().num_workers();
}

}  // namespace fastft
