// fixture-dest: src/core/clean_block_comment.cc
// Must trigger: nothing. Every rule's trigger pattern appears only as
// prose inside /* ... */ block comments — single-line, multi-line, and
// mid-line — which the tokenizer classifies as comments, not code.
#include <map>

namespace fastft {

/* Prose mentioning std::mutex and std::lock_guard must not fire
   raw-mutex, nor std::rand / srand(1) / std::random_device fire
   nondeterminism, across these
   continuation lines of one block comment. */
int g_block_comment_fixture = 0;

/*
 * A decorated block: time(nullptr) and steady_clock::now() stay prose.
 * for (const auto& kv : some_unordered_map_var) { } stays prose too.
 */
int Bump() { /* _mm256_add_pd( in a mid-line comment */ return 1; }

const char* kNotAComment =
    "/* std::mutex inside a string is not a comment opener */";
/* A real block comment mentioning condition_variable stays prose. */

}  // namespace fastft
