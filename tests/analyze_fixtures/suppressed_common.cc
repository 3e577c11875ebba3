// fixture-dest: src/common/suppressed_common.cc
// Rules that fire outside the src/core and src/nn scoring paths, each
// silenced on its own line: a layer-DAG violation on the include line, and
// hash-order accumulation on the `+=` line. Fires nothing.
#include <unordered_map>

#include "core/stub_core.h"  // fastft-analyze: allow(layer-violation): fixture demonstrates suppression

namespace fastft {
FixtureCoreStub MakeSuppressedStub() { return FixtureCoreStub{}; }

double SumSuppressed(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total += kv.second;  // fastft-analyze: allow(fp-unordered-accumulate): fixture demonstrates suppression
  }
  return total;
}
}  // namespace fastft
