#include "nn/encode_cache.h"

#include <algorithm>

#include "common/trace.h"

namespace fastft {
namespace nn {
namespace {

// FNV-1a over the token stream; prefix hashes of one sequence are computed
// by extending the running state one token at a time.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t HashStep(uint64_t state, int token) {
  state ^= static_cast<uint64_t>(static_cast<uint32_t>(token));
  return state * kFnvPrime;
}

// Per-entry bookkeeping overhead (list node, map slot, vector headers) —
// approximate, but keeps the byte cap honest for tiny states.
constexpr size_t kEntryOverhead = 128;

}  // namespace

size_t EncodeState::Bytes() const {
  size_t bytes = sizeof(EncodeState);
  for (const RecurrentLayerState& layer : layers) {
    bytes += (layer.h.capacity() + layer.c.capacity()) * sizeof(double) +
             sizeof(RecurrentLayerState);
  }
  return bytes;
}

double PrefixCacheStats::HitRate() const {
  return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0;
}

double PrefixCacheStats::TokenReuseRate() const {
  const int64_t total = tokens_reused + tokens_encoded;
  return total > 0 ? static_cast<double>(tokens_reused) /
                         static_cast<double>(total)
                   : 0.0;
}

void PrefixCacheStats::Merge(const PrefixCacheStats& other) {
  lookups += other.lookups;
  hits += other.hits;
  tokens_reused += other.tokens_reused;
  tokens_encoded += other.tokens_encoded;
  evictions += other.evictions;
  invalidations += other.invalidations;
}

PrefixStateCache::PrefixStateCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

size_t PrefixStateCache::EntryBytes(const Entry& entry) {
  return entry.prefix.capacity() * sizeof(int) + entry.state.Bytes() +
         kEntryOverhead;
}

bool PrefixStateCache::LongestPrefix(const std::vector<int>& tokens,
                                     EncodeState* state) {
  if (!enabled() || tokens.empty()) return false;
  FASTFT_TRACE_SPAN("encode_cache/lookup");
  const int n = static_cast<int>(tokens.size());
  std::vector<uint64_t> prefix_hash(n);
  uint64_t h = kFnvOffset;
  for (int i = 0; i < n; ++i) {
    h = HashStep(h, tokens[i]);
    prefix_hash[i] = h;
  }
  common::MutexLock lock(&mu_);
  ++stats_.lookups;
  for (int len = n; len >= 1; --len) {
    auto it = index_.find(prefix_hash[len - 1]);
    if (it == index_.end()) continue;
    const Entry& entry = *it->second;
    // Hash collisions are possible; the stored prefix is the ground truth.
    if (static_cast<int>(entry.prefix.size()) != len ||
        !std::equal(entry.prefix.begin(), entry.prefix.end(),
                    tokens.begin())) {
      continue;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    *state = entry.state;
    ++stats_.hits;
    stats_.tokens_reused += len;
    return true;
  }
  return false;
}

void PrefixStateCache::Insert(const std::vector<int>& tokens,
                              const EncodeState& state) {
  if (!enabled() || state.length <= 0 ||
      state.length > static_cast<int>(tokens.size())) {
    return;
  }
  std::vector<int> prefix(tokens.begin(), tokens.begin() + state.length);
  uint64_t key = kFnvOffset;
  for (int token : prefix) key = HashStep(key, token);

  common::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Same prefix: refresh recency (state is weight-determined, identical).
    // Different prefix (collision): replace — last writer wins.
    Entry& entry = *it->second;
    if (entry.prefix != prefix) {
      bytes_used_ -= EntryBytes(entry);
      entry.prefix = std::move(prefix);
      entry.state = state;
      bytes_used_ += EntryBytes(entry);
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictOverCapLocked();
    return;
  }
  lru_.push_front(Entry{key, std::move(prefix), state});
  index_[key] = lru_.begin();
  bytes_used_ += EntryBytes(lru_.front());
  EvictOverCapLocked();
}

void PrefixStateCache::EvictOverCapLocked() {
  while (bytes_used_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_used_ -= EntryBytes(victim);
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PrefixStateCache::RecordEncoded(int64_t count) {
  if (!enabled() || count <= 0) return;
  common::MutexLock lock(&mu_);
  stats_.tokens_encoded += count;
}

void PrefixStateCache::Invalidate() {
  if (!enabled()) return;
  common::MutexLock lock(&mu_);
  if (!lru_.empty()) {
    ++stats_.invalidations;
  }
  lru_.clear();
  index_.clear();
  bytes_used_ = 0;
}

PrefixCacheStats PrefixStateCache::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

size_t PrefixStateCache::entries() const {
  common::MutexLock lock(&mu_);
  return lru_.size();
}

}  // namespace nn
}  // namespace fastft
