// fixture-dest: src/common/trigger_pragma_once.h
// Must trigger: pragma-once (include guard instead of #pragma once).
#ifndef FASTFT_TESTS_ANALYZE_FIXTURES_TRIGGER_PRAGMA_ONCE_H_
#define FASTFT_TESTS_ANALYZE_FIXTURES_TRIGGER_PRAGMA_ONCE_H_

namespace fastft {
inline int FixtureValue() { return 42; }
}  // namespace fastft

#endif  // FASTFT_TESTS_ANALYZE_FIXTURES_TRIGGER_PRAGMA_ONCE_H_
