// fixture-dest: src/core/trig_reasonless.cc
// An allow() without a stated reason suppresses nothing: both reductions
// must still fire [fp-reduction].
#include <numeric>
#include <vector>

namespace fastft {

double SumReasonless(const std::vector<double>& v) {
  double total = std::accumulate(v.begin(), v.end(), 0.0);  // fastft-analyze: allow(fp-reduction)
  total += std::accumulate(v.begin(), v.end(), 0.0);  // fastft-analyze: allow(fp-reduction):
  return total;
}

}  // namespace fastft
