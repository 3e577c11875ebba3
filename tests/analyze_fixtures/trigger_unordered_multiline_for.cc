// fixture-dest: src/core/trig_multiline_for.cc
// A range-for over a hash map whose header is split across two lines must
// fire [unordered-iteration] on the `for` line.
#include <unordered_map>

namespace fastft {

std::unordered_map<int, double> table;

double SumTable() {
  double total = 0.0;
  for (const auto& kv :
       table) {
    total += kv.second;
  }
  return total;
}

}  // namespace fastft
