// fixture-dest: src/core/suppressed.cc
// Every code-level rule that applies to src/core triggered once and
// silenced by a per-line `fastft-analyze: allow(<rule>): <reason>`
// suppression. Fires nothing.
#include <chrono>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fastft {

Status EmitFixture();
Result<int> GrabFixture();

std::mutex g_fixture_mu;  // fastft-analyze: allow(raw-mutex): fixture demonstrates suppression

double SuppressedAll(const std::vector<double>& v,
                     const std::unordered_map<int, double>& weight_map) {
  EmitFixture();  // fastft-analyze: allow(discarded-status): fixture demonstrates suppression
  auto grabbed = GrabFixture();
  int x = grabbed.value();  // fastft-analyze: allow(unchecked-value): fixture demonstrates suppression
  double total = std::accumulate(v.begin(), v.end(), 0.0);  // fastft-analyze: allow(fp-reduction): fixture demonstrates suppression
  auto t0 = std::chrono::steady_clock::now();  // fastft-analyze: allow(nondeterminism): fixture demonstrates suppression
  for (const auto& kv : weight_map) {  // fastft-analyze: allow(unordered-iteration): fixture demonstrates suppression
    total += kv.second;
  }
  (void)t0;
  return total + x;
}

}  // namespace fastft
