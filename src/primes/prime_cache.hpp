// The Prime Representative DB (Fig 4's "prime manager").
//
// Computing a representative hashes and BPSW-tests dozens of candidates; the paper's
// headline optimization (§III-D3, Table II) is to pre-compute and store the
// representatives of every index element offline, so that online proof
// generation only performs table lookups.  This cache is that store: a
// thread-safe map from 64-bit elements to primes, with bulk parallel
// pre-computation.  On disk it lives in the epoch store's binary-searchable
// prime sections, served back through a PrimeBacking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <string>
#include <unordered_map>
#include <vector>

#include "primes/prime_rep.hpp"

namespace vc {

class ThreadPool;

// Read-only lookup tier behind the in-memory map.  Store-backed snapshots
// (src/store) implement this over a memory-mapped sorted array so a cold
// restart resolves known representatives without re-running hash-and-test,
// yet without materializing the whole table up front.  Purely accelerative:
// when a backing misses, get() falls back to computing the representative.
// Implementations must be thread-safe.
class PrimeBacking {
 public:
  virtual ~PrimeBacking() = default;
  // Returns true and fills `out` if `element` is in the backing store.
  [[nodiscard]] virtual bool lookup(std::uint64_t element, Bigint& out) const = 0;
  // Enumerates every (element, representative) pair the backing can serve.
  // Compaction uses this to fold a chain's prime sections back into one
  // full snapshot.  A key may be emitted more than once (chained backings
  // overlay newer tiers over older ones); the first emission wins.  The
  // default is an empty enumeration for backings that cannot iterate.
  virtual void for_each(
      const std::function<void(std::uint64_t, const Bigint&)>& /*fn*/) const {}
};

class PrimeCache {
 public:
  explicit PrimeCache(PrimeRepConfig config);

  // Returns the representative of `element`, computing and caching it if
  // absent.  Thread-safe.
  Bigint get(std::uint64_t element);

  // Lookup without computing; returns false if not cached.
  bool try_get(std::uint64_t element, Bigint& out) const;

  // Pre-computes representatives for all elements (the offline phase).
  // Work is split over the pool in contiguous chunks.
  void precompute(std::span<const std::uint64_t> elements, ThreadPool& pool);

  // Drops every cached entry (benchmarks use this to measure cold paths).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  // Installs a read-only lookup tier consulted on map misses (see
  // PrimeBacking).  Entries found there are promoted into the map and
  // counted as hits — the representative was never recomputed.
  void set_backing(std::shared_ptr<const PrimeBacking> backing);

  // The map contents as (element, prime) pairs sorted by element — the
  // epoch store serializes this into its binary-searchable prime sections.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Bigint>> sorted_entries() const;

  // sorted_entries() plus everything the backing tier can enumerate (map
  // entries win on overlap).  This is what the epoch store persists: for a
  // builder-fed cache (no backing) it is byte-for-byte sorted_entries(),
  // and for a store-backed cache it folds the mapped sections back in so a
  // re-encoded or compacted epoch keeps its precomputed representatives.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Bigint>> merged_entries() const;

  // The installed backing tier (may be null).
  [[nodiscard]] std::shared_ptr<const PrimeBacking> backing() const;

  [[nodiscard]] const PrimeRepGenerator& generator() const { return gen_; }

 private:
  PrimeRepGenerator gen_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, Bigint> cache_;
  std::shared_ptr<const PrimeBacking> backing_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace vc
