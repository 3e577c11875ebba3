// Prefix-state cache for incremental sequence encoding.
//
// The engine's transformation sequences grow by appending tokens: step t+1's
// sequence shares all but its trailing EOS with step t's. A recurrent
// backbone (LSTM/RNN) is fully summarized by its per-layer hidden (+cell)
// vectors after any prefix, so caching those snapshots — keyed by a hash of
// the token prefix, verified by exact token comparison — lets Predict /
// Novelty / TargetEmbedding re-encode only the appended tokens. This is the
// same prefix-reuse idea a KV-cache exploits in inference stacks, shrunk to
// O(layers × hidden) state per entry.
//
// Correctness does not depend on the cache: a resumed encode performs the
// exact per-timestep arithmetic of a from-scratch encode (earlier timesteps
// never depend on later tokens), so cached and uncached scores are
// bit-identical. The cache must be invalidated whenever the model's weights
// change (SequenceModel does this in ApplyStep/LoadState).
//
// Thread safety: all public methods are internally locked, so concurrent
// encodes may share one cache. Entry *content* is deterministic; LRU order
// and the stats under concurrency are not, because they follow the
// schedule. The engine encodes on one thread, in step order, which keeps
// PrefixCacheStats — the cache's one record of its counters — identical
// at any engine thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace fastft {
namespace nn {

/// Recurrent snapshot of one backbone layer: hidden vector, plus the cell
/// vector for LSTM layers (empty for plain RNN layers).
struct RecurrentLayerState {
  std::vector<double> h;
  std::vector<double> c;
};

/// Inference-only encoder state after consuming `length` tokens: one
/// snapshot per backbone layer, in stacking order.
struct EncodeState {
  std::vector<RecurrentLayerState> layers;
  int length = 0;

  size_t Bytes() const;
};

/// Counters of one cache (or the merged counters of several — see Merge).
struct PrefixCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;            // lookups that found a non-empty prefix
  int64_t tokens_reused = 0;   // prefix tokens served from cached states
  int64_t tokens_encoded = 0;  // suffix tokens pushed through the backbone
  int64_t evictions = 0;
  int64_t invalidations = 0;   // full clears after weight updates

  /// hits / lookups (0 when never queried).
  double HitRate() const;
  /// tokens_reused / (tokens_reused + tokens_encoded) — the fraction of
  /// encoder work the cache absorbed.
  double TokenReuseRate() const;
  void Merge(const PrefixCacheStats& other);
};

/// Bounded LRU map from token prefixes to EncodeState snapshots.
class PrefixStateCache {
 public:
  /// `capacity_bytes` caps the summed size of stored prefixes + states;
  /// 0 disables the cache entirely (every method becomes a cheap no-op).
  explicit PrefixStateCache(size_t capacity_bytes);

  bool enabled() const { return capacity_bytes_ > 0; }

  /// Finds the longest cached prefix of `tokens` (up to and including the
  /// full sequence). On a hit, copies the snapshot into *state and returns
  /// true. Records lookup/hit/tokens_reused stats.
  bool LongestPrefix(const std::vector<int>& tokens, EncodeState* state);

  /// Stores a snapshot covering tokens[0, state.length). An existing entry
  /// for the same prefix is refreshed; least-recently-used entries are
  /// evicted until the byte cap holds.
  void Insert(const std::vector<int>& tokens, const EncodeState& state);

  /// Adds `count` to the tokens_encoded counter (suffix work performed by
  /// the caller after a lookup).
  void RecordEncoded(int64_t count);

  /// Drops every entry; call whenever the encoder's weights change.
  void Invalidate();

  PrefixCacheStats stats() const;
  size_t entries() const;

 private:
  struct Entry {
    uint64_t key = 0;
    std::vector<int> prefix;
    EncodeState state;
  };
  using EntryList = std::list<Entry>;

  static size_t EntryBytes(const Entry& entry);
  void EvictOverCapLocked() FASTFT_REQUIRES(mu_);

  const size_t capacity_bytes_;
  mutable common::Mutex mu_;
  size_t bytes_used_ FASTFT_GUARDED_BY(mu_) = 0;
  // front = most recently used
  EntryList lru_ FASTFT_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, EntryList::iterator> index_
      FASTFT_GUARDED_BY(mu_);
  PrefixCacheStats stats_ FASTFT_GUARDED_BY(mu_);
};

}  // namespace nn
}  // namespace fastft
