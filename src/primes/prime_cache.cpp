#include "primes/prime_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/threadpool.hpp"

namespace vc {

namespace {

// The prime manager's registry mirror: hit/miss counts plus the wall time
// of cache misses (a miss hashes and tests dozens of candidates — it IS the
// "prime-representative lookup" stage of the pipeline; hits are map reads
// and only counted).
obs::Counter& lookup_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_prime_lookup_total", "result=\"hit\"", "Prime-representative cache lookups");
  return c;
}
obs::Counter& lookup_misses() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vc_prime_lookup_total", "result=\"miss\"");
  return c;
}
obs::Histogram& miss_stage() {
  static obs::Histogram& h = obs::MetricsRegistry::global().stage("prime_lookup");
  return h;
}

}  // namespace

PrimeCache::PrimeCache(PrimeRepConfig config) : gen_(std::move(config)) {}

Bigint PrimeCache::get(std::uint64_t element) {
  std::shared_ptr<const PrimeBacking> backing;
  {
    std::shared_lock lock(mu_);
    auto it = cache_.find(element);
    if (it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lookup_hits().inc();
      return it->second;
    }
    backing = backing_;
  }
  // Map miss: consult the read-only backing tier before recomputing.  A
  // backing hit still counts as a hit — no hash-and-test ran — and the
  // entry is promoted so later lookups stay on the map fast path.
  if (backing != nullptr) {
    Bigint rep;
    if (backing->lookup(element, rep)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lookup_hits().inc();
      std::unique_lock lock(mu_);
      cache_.emplace(element, rep);
      return rep;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  lookup_misses().inc();
  obs::Span span(miss_stage());
  Bigint rep = gen_.representative(element);
  {
    std::unique_lock lock(mu_);
    cache_.emplace(element, rep);
  }
  return rep;
}

bool PrimeCache::try_get(std::uint64_t element, Bigint& out) const {
  std::shared_ptr<const PrimeBacking> backing;
  {
    std::shared_lock lock(mu_);
    auto it = cache_.find(element);
    if (it != cache_.end()) {
      out = it->second;
      return true;
    }
    backing = backing_;
  }
  return backing != nullptr && backing->lookup(element, out);
}

void PrimeCache::set_backing(std::shared_ptr<const PrimeBacking> backing) {
  std::unique_lock lock(mu_);
  backing_ = std::move(backing);
}

void PrimeCache::precompute(std::span<const std::uint64_t> elements, ThreadPool& pool) {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("prime_precompute");
  obs::Span span(stage, "prime_precompute");
  // Compute into a private vector per chunk, then merge once; avoids lock
  // contention on the hot path.
  std::vector<std::pair<std::uint64_t, Bigint>> computed(elements.size());
  pool.parallel_for(0, elements.size(), [&](std::size_t i) {
    computed[i] = {elements[i], gen_.representative(elements[i])};
  });
  std::unique_lock lock(mu_);
  for (auto& [k, v] : computed) {
    cache_.emplace(k, std::move(v));
  }
}

void PrimeCache::clear() {
  std::unique_lock lock(mu_);
  cache_.clear();
}

std::size_t PrimeCache::size() const {
  std::shared_lock lock(mu_);
  return cache_.size();
}

std::vector<std::pair<std::uint64_t, Bigint>> PrimeCache::sorted_entries() const {
  std::vector<std::pair<std::uint64_t, Bigint>> out;
  {
    std::shared_lock lock(mu_);
    out.reserve(cache_.size());
    for (const auto& [k, v] : cache_) out.emplace_back(k, v);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<std::uint64_t, Bigint>> PrimeCache::merged_entries() const {
  std::unordered_map<std::uint64_t, Bigint> merged;
  std::shared_ptr<const PrimeBacking> backing;
  {
    std::shared_lock lock(mu_);
    merged = cache_;
    backing = backing_;
  }
  if (backing != nullptr) {
    backing->for_each([&](std::uint64_t k, const Bigint& v) { merged.emplace(k, v); });
  }
  std::vector<std::pair<std::uint64_t, Bigint>> out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) out.emplace_back(k, std::move(v));
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::shared_ptr<const PrimeBacking> PrimeCache::backing() const {
  std::shared_lock lock(mu_);
  return backing_;
}

}  // namespace vc
