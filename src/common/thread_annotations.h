// Clang thread-safety annotations and annotated synchronization primitives.
//
// The determinism contract (bit-identical scores at any thread count, see
// DESIGN.md "Concurrency model") rests on a handful of locking disciplines
// scattered across the concurrent subsystems: the pool's queue/exception
// state, the obs rings and thread registry, the encode-cache LRU, the
// fault injector, and the log sink.
// TSan checks those disciplines dynamically — but only on the interleavings
// the test inputs happen to produce. These annotations let Clang's
// -Wthread-safety analysis prove lock discipline at compile time for every
// path, including the ones no test exercises.
//
// Usage rules (enforced by tools/fastft_analyze.py rule `raw-mutex`):
//   * Protected state is declared `Mutex mu_;` + `T member FASTFT_GUARDED_BY(mu_);`
//     — never a raw std::mutex.
//   * Critical sections use `MutexLock lock(&mu_);` (RAII), or explicit
//     Lock()/Unlock() in the rare case RAII cannot express the shape.
//   * Helpers called with the lock already held are annotated
//     `FASTFT_REQUIRES(mu_)` and named `...Locked()`.
//   * Condition waits use `CondVar` with an explicit `while (!cond) Wait`
//     loop in the annotated caller — predicate lambdas hide the capability
//     from the analysis.
//
// The macros expand to nothing on non-Clang compilers (GCC builds them
// away); `tools/check_static.sh` runs the enforcing build
// (FASTFT_THREAD_SAFETY=ON: -Wthread-safety -Werror=thread-safety-analysis)
// when a Clang toolchain is available, and tools/check_annotations.sh
// asserts the analysis actually rejects an unguarded access.

#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define FASTFT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FASTFT_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (e.g. a mutex type).
#define FASTFT_CAPABILITY(x) FASTFT_THREAD_ANNOTATION(capability(x))

/// Marks a RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define FASTFT_SCOPED_CAPABILITY FASTFT_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a member is protected by the given capability.
#define FASTFT_GUARDED_BY(x) FASTFT_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the pointee of a pointer member is protected.
#define FASTFT_PT_GUARDED_BY(x) FASTFT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held by the caller.
#define FASTFT_REQUIRES(...) \
  FASTFT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (held on return).
#define FASTFT_ACQUIRE(...) \
  FASTFT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define FASTFT_RELEASE(...) \
  FASTFT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention).
#define FASTFT_EXCLUDES(...) \
  FASTFT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define FASTFT_RETURN_CAPABILITY(x) \
  FASTFT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the discipline cannot be expressed.
#define FASTFT_NO_THREAD_SAFETY_ANALYSIS \
  FASTFT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fastft {
namespace common {

/// std::mutex with the `capability` annotation so members can be declared
/// FASTFT_GUARDED_BY(mu_). Non-recursive, non-copyable, same cost as the
/// raw mutex it wraps.
class FASTFT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FASTFT_ACQUIRE() { mu_.lock(); }
  void Unlock() FASTFT_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII critical section over a Mutex (the annotated lock_guard /
/// unique_lock). Wraps unique_lock so CondVar can wait on it.
class FASTFT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) FASTFT_ACQUIRE(mu) : lock_(mu->mu_) {}
  ~MutexLock() FASTFT_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. Wait atomically releases
/// the lock and reacquires it before returning, so from the analysis's view
/// (and the caller's postcondition) the capability is held throughout —
/// callers re-test their predicate in a `while` loop around Wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock* lock) { cv_.wait(lock->lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace common
}  // namespace fastft
