// fixture-dest: src/core/clean_analyze.cc
// Disciplined error handling: propagation macros, ok()-guarded value
// reads, index-order reductions, iteration over ordered containers only.
// Fires nothing.
#include <map>
#include <vector>

#include "common/status.h"

namespace fastft {

Status PersistFixture();
Result<int> FetchFixtureCount();

std::map<int, double> ordered_scores;

Status CleanCaller() {
  FASTFT_RETURN_NOT_OK(PersistFixture());
  auto fetched = FetchFixtureCount();
  if (!fetched.ok()) return fetched.status();
  int count = fetched.value();
  FASTFT_ASSIGN_OR_RETURN(int other, FetchFixtureCount());
  double total = 0.0;
  std::vector<double> values(static_cast<size_t>(count + other), 1.0);
  for (size_t i = 0; i < values.size(); ++i) {
    total += values[i];
  }
  for (const auto& [token, score] : ordered_scores) {
    total += score;
  }
  return total >= 0.0 ? Status::OK() : Status::Internal("negative total");
}

}  // namespace fastft
