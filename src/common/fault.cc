#include "common/fault.h"

#include <cstdlib>

#include "common/rng.h"
#include "common/thread_annotations.h"

namespace fastft {
namespace {

using common::Mutex;
using common::MutexLock;

// Guards the injector's site table. Leaked alongside the state below so
// fault points reached during static destruction stay safe to query.
Mutex& FaultMutex() {
  static Mutex* mu = new Mutex();
  return *mu;
}

struct SiteState {
  double probability = 0.0;
  FaultSiteStats stats;
};

struct InjectorState {
  uint64_t seed FASTFT_GUARDED_BY(FaultMutex()) = 0;
  std::map<std::string, SiteState> sites FASTFT_GUARDED_BY(FaultMutex());
  std::map<std::string, int64_t> kill_at FASTFT_GUARDED_BY(FaultMutex());
  KillMode kill_mode FASTFT_GUARDED_BY(FaultMutex()) = KillMode::kExit;
};

InjectorState& State() {
  static InjectorState* state = new InjectorState();
  return *state;
}

// FNV-1a, so the per-site stream depends on the site *name*, not on
// registration order.
uint64_t HashSite(const char* site) {
  uint64_t h = 1469598103934665603ull;
  for (const char* p = site; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::atomic<bool> FaultInjector::armed_{false};

void FaultInjector::Arm(uint64_t seed,
                        std::map<std::string, double> site_probability) {
  InjectorState& state = State();
  MutexLock lock(&FaultMutex());
  state.seed = seed;
  state.sites.clear();
  for (auto& [site, p] : site_probability) {
    SiteState s;
    s.probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
    state.sites.emplace(site, s);
  }
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmKill(std::map<std::string, int64_t> site_kill_at_hit,
                            KillMode mode) {
  InjectorState& state = State();
  MutexLock lock(&FaultMutex());
  state.kill_at = std::move(site_kill_at_hit);
  state.kill_mode = mode;
  for (const auto& [site, unused] : state.kill_at) {
    (void)unused;
    state.sites[site].stats = FaultSiteStats{};
  }
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  InjectorState& state = State();
  MutexLock lock(&FaultMutex());
  armed_.store(false, std::memory_order_relaxed);
  state.sites.clear();
  state.kill_at.clear();
}

bool FaultInjector::ShouldFail(const char* site) {
  InjectorState& state = State();
  MutexLock lock(&FaultMutex());
  // Unlisted sites never fire, but their hits are still counted: Stats()
  // then shows every fault point reached while armed, which is how a test
  // discovers the site names a code path exposes.
  SiteState& s = state.sites[site];
  int64_t hit = s.stats.hits++;
  auto kill = state.kill_at.find(site);
  if (kill != state.kill_at.end() && hit == kill->second) {
    // Chaos kill: die without unwinding, exactly as an external SIGKILL /
    // OOM would. 137 is the conventional "killed" exit code.
    if (state.kill_mode == KillMode::kAbort) std::abort();
    std::_Exit(137);
  }
  // Decision = pure function of (seed, site name, hit index).
  uint64_t stream = state.seed ^ HashSite(site) ^
                    (static_cast<uint64_t>(hit) * 0x9E3779B97F4A7C15ull);
  uint64_t draw = SplitMix64(stream);
  double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  bool fire = u < s.probability;
  if (fire) ++s.stats.fires;
  return fire;
}

std::map<std::string, FaultSiteStats> FaultInjector::Stats() {
  InjectorState& state = State();
  MutexLock lock(&FaultMutex());
  std::map<std::string, FaultSiteStats> out;
  for (const auto& [site, s] : state.sites) out.emplace(site, s.stats);
  return out;
}

}  // namespace fastft
