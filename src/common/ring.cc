#include "common/ring.h"

namespace fastft {
namespace obs {
namespace {

struct ThreadEntry {
  std::string name;
  bool named = false;  // explicit name vs. the "thread-<id>" fallback
};

// Indexed by tid. Leaked like RegistryMutex(): threads may register during
// static destruction.
std::vector<ThreadEntry>& Registry()
    FASTFT_REQUIRES(internal::RegistryMutex()) {
  static auto* registry = new std::vector<ThreadEntry>();
  return *registry;
}

}  // namespace

namespace internal {

common::Mutex& RegistryMutex() {
  static common::Mutex* mu = new common::Mutex();
  return *mu;
}

std::vector<std::string> RegisteredThreadNames() {
  common::MutexLock lock(&RegistryMutex());
  std::vector<std::string> names;
  for (const ThreadEntry& entry : Registry()) names.push_back(entry.name);
  return names;
}

}  // namespace internal

int CurrentThreadId() {
  thread_local int tls_tid = -1;
  if (tls_tid < 0) {
    common::MutexLock lock(&internal::RegistryMutex());
    std::vector<ThreadEntry>& registry = Registry();
    tls_tid = static_cast<int>(registry.size());
    registry.push_back({"thread-" + std::to_string(tls_tid), false});
  }
  return tls_tid;
}

int RegisterThisThread(const std::string& name) {
  const int tid = CurrentThreadId();
  common::MutexLock lock(&internal::RegistryMutex());
  ThreadEntry& entry = Registry()[tid];
  if (!entry.named) entry = {name, true};
  return tid;
}

}  // namespace obs
}  // namespace fastft
