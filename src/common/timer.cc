#include "common/timer.h"

#include <chrono>

namespace fastft {

namespace obs::internal {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())  // fastft-analyze: allow(nondeterminism): the tree's one clock read; timings are reported, never scored
          .count());
}

}  // namespace obs::internal

using common::MutexLock;

TimeBuckets::TimeBuckets(const TimeBuckets& other) {
  MutexLock lock(&other.mu_);
  buckets_ = other.buckets_;
}

TimeBuckets& TimeBuckets::operator=(const TimeBuckets& other) {
  if (this == &other) return *this;
  std::map<std::string, double> copy;
  {
    MutexLock lock(&other.mu_);
    copy = other.buckets_;
  }
  MutexLock lock(&mu_);
  buckets_ = std::move(copy);
  return *this;
}

void TimeBuckets::Add(const std::string& bucket, double seconds) {
  MutexLock lock(&mu_);
  buckets_[bucket] += seconds;
}

double TimeBuckets::Get(const std::string& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0.0 : it->second;
}

double TimeBuckets::Total() const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const auto& [name, secs] : buckets_) total += secs;
  return total;
}

void TimeBuckets::Clear() {
  MutexLock lock(&mu_);
  buckets_.clear();
}

std::map<std::string, double> TimeBuckets::buckets() const {
  MutexLock lock(&mu_);
  return buckets_;
}

}  // namespace fastft
