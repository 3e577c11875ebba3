// fixture-dest: src/core/clean_raw_string.cc
// Rule triggers inside a multi-line raw string literal are data, not
// code. Fires nothing.

namespace fastft {

const char* kRawSnippet = R"(
std::mutex g_mu;
double Sum(const double* p) { return _mm256_add_pd(p, p); }
)";

const char* kDelimitedSnippet = R"cc(
  std::lock_guard<std::mutex> lock(g_mu);  )" still inside
)cc";

}  // namespace fastft
