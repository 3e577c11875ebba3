// Per-thread drop-oldest rings and the one thread registry of fastft::obs.
// The ring's client is the span tracer (common/trace.h), whose producers are
// the engine thread and every pool worker: it keeps a Ring<SpanEvent>. See
// DESIGN.md "Observability".
//
//   * A thread's tid comes from one registry (RegisterThisThread, or
//     CurrentThreadId on first use), so trace `tid`s and FASTFT_LOG `T<n>`
//     prefixes name the same thread.
//   * One fixed-capacity buffer per thread and ring, drop-oldest with an
//     exact dropped counter. Only the owner thread appends; Start and
//     Snapshot lock each buffer's own mutex briefly, so the recording path
//     takes no shared lock. A mutex, not a seqlock: TSan can prove it clean.
//     Lock order: RegistryMutex(), then a buffer's mutex.
//   * Session reset is `count = 0`, plus a resize only when the capacity
//     changes: slots at or above `count` are never read, and rebuilding 16k
//     slots per session would cost more than the recording itself.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace fastft {
namespace obs {

/// Names the calling thread and returns its stable tid. First call wins;
/// later calls only return the tid. ThreadPool workers call this as
/// "pool-worker-<i>".
int RegisterThisThread(const std::string& name);

/// Stable small id of the calling thread (registers it as "thread-<id>" on
/// first use). Also used by FASTFT_LOG line prefixes.
int CurrentThreadId();

namespace internal {

/// Guards the thread registry and every ring's buffer table. Leaked on
/// purpose: pool workers may still register or record during static
/// destruction.
common::Mutex& RegistryMutex();

/// Name of every registered thread, indexed by tid.
std::vector<std::string> RegisteredThreadNames();

}  // namespace internal

/// What one thread's buffer held at Snapshot time.
template <typename T>
struct RingSlice {
  int tid = 0;
  std::vector<T> items;  // oldest first
  int64_t dropped = 0;   // items overwritten after the buffer wrapped
};

/// Create with `new` and never destroy: pool workers may append during
/// static destruction, and threads cache their buffer by ring address.
template <typename T>
class Ring {
 public:
  Ring() = default;
  ~Ring() = delete;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Empties every buffer and starts recording at `capacity` (min 1) items
  /// per thread. Calling while active restarts the session.
  void Start(size_t capacity) {
    common::MutexLock lock(&internal::RegistryMutex());
    // Disable first so concurrent appenders quiesce against the buffer locks
    // taken below rather than appending into half-reset buffers.
    enabled_.store(false, std::memory_order_relaxed);
    capacity_ = std::max<size_t>(capacity, 1);
    for (std::unique_ptr<Buffer>& buffer : buffers_) {
      if (buffer == nullptr) continue;
      common::MutexLock buffer_lock(&buffer->mu);
      if (buffer->slots.size() != capacity_) buffer->slots.resize(capacity_);
      buffer->count = 0;
    }
    enabled_.store(true, std::memory_order_release);
  }

  /// Stops recording; buffers stay frozen for Snapshot.
  void Stop() { enabled_.store(false, std::memory_order_release); }

  /// True between Start and Stop. One relaxed atomic load.
  bool Active() const { return enabled_.load(std::memory_order_relaxed); }

  /// Copies `item` into the calling thread's buffer (no-op when inactive).
  void Append(const T& item) {
    if (!Active()) return;
    Buffer* buffer = ThisThreadBuffer();
    common::MutexLock lock(&buffer->mu);
    if (buffer->slots.empty()) return;
    buffer->slots[buffer->count % buffer->slots.size()] = item;
    ++buffer->count;
  }

  /// Copies out every non-empty buffer, ascending tid; buffers keep their
  /// contents.
  std::vector<RingSlice<T>> Snapshot() {
    std::vector<RingSlice<T>> slices;
    common::MutexLock lock(&internal::RegistryMutex());
    for (size_t tid = 0; tid < buffers_.size(); ++tid) {
      Buffer* buffer = buffers_[tid].get();
      if (buffer == nullptr) continue;
      common::MutexLock buffer_lock(&buffer->mu);
      const size_t capacity = buffer->slots.size();
      if (capacity == 0 || buffer->count == 0) continue;
      const uint64_t kept = std::min<uint64_t>(buffer->count, capacity);
      RingSlice<T> slice;
      slice.tid = static_cast<int>(tid);
      slice.dropped = static_cast<int64_t>(buffer->count - kept);
      slice.items.reserve(kept);
      for (uint64_t i = buffer->count - kept; i < buffer->count; ++i) {
        slice.items.push_back(buffer->slots[i % capacity]);
      }
      slices.push_back(std::move(slice));
    }
    return slices;
  }

 private:
  struct Buffer {
    common::Mutex mu;
    std::vector<T> slots FASTFT_GUARDED_BY(mu);
    uint64_t count FASTFT_GUARDED_BY(mu) = 0;  // appended since reset
  };

  Buffer* ThisThreadBuffer() {
    // Only the first append per thread and ring takes the registry lock.
    thread_local const Ring* cached_ring = nullptr;
    thread_local Buffer* cached_buffer = nullptr;
    if (cached_ring != this) {
      const size_t tid = static_cast<size_t>(CurrentThreadId());
      common::MutexLock lock(&internal::RegistryMutex());
      if (buffers_.size() <= tid) buffers_.resize(tid + 1);
      if (buffers_[tid] == nullptr) {
        buffers_[tid] = std::make_unique<Buffer>();
        common::MutexLock buffer_lock(&buffers_[tid]->mu);
        buffers_[tid]->slots.resize(capacity_);
      }
      cached_buffer = buffers_[tid].get();
      cached_ring = this;
    }
    return cached_buffer;
  }

  std::atomic<bool> enabled_{false};
  size_t capacity_ FASTFT_GUARDED_BY(internal::RegistryMutex()) = 0;
  // Indexed by registry tid; null until that thread first appends.
  std::vector<std::unique_ptr<Buffer>> buffers_
      FASTFT_GUARDED_BY(internal::RegistryMutex());
};

}  // namespace obs
}  // namespace fastft
