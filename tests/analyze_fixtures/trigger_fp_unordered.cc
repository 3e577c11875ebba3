// fixture-dest: src/ml/trig_fp_unordered.cc
// Compound FP accumulation driven by unordered-container iteration order
// must fire [fp-unordered-accumulate] (outside src/core and src/nn, where
// the same loop is [unordered-iteration] instead).
#include <unordered_map>

namespace fastft {

double TotalFixtureWeight(
    const std::unordered_map<int, double>& fixture_weights) {
  double total = 0.0;
  for (const auto& kv : fixture_weights) {
    total += kv.second;
  }
  return total;
}

}  // namespace fastft
