// Immutable, epoch-numbered index snapshots (serving side).
//
// A snapshot is a frozen version of the verifiable index: per-term entries
// (postings, flat accumulators, interval trees, signed Bloom filters), the
// dictionary gap structure, and the prime-representative caches — all held
// through shared_ptr so that snapshots from consecutive epochs share every
// structure the update did not touch (copy-on-write structural sharing).
//
// The owner-side IndexBuilder (vindex/index_builder.hpp) produces snapshots;
// the Prover, SearchEngine and CloudService consume them.  A snapshot never
// changes after construction, so any number of threads may serve queries
// from it while the owner applies the next update — swapping in the new
// epoch replaces the cloud's one mutex-guarded shared_ptr.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/counting_bloom.hpp"
#include "index/inverted_index.hpp"
#include "interval/dict_intervals.hpp"
#include "interval/interval_index.hpp"
#include "primes/prime_cache.hpp"
#include "vindex/statements.hpp"

namespace vc {

class WitnessTier;

struct VerifiableIndexConfig {
  std::size_t modulus_bits = 1024;
  std::size_t rep_bits = 128;     // prime representative width
  std::size_t interval_size = 100;  // the paper's §V-A choice
  BloomParams bloom{.counters = 4096, .hashes = 1, .domain = "vc.bloom.docs"};

  [[nodiscard]] PrimeRepConfig tuple_prime_config() const {
    return PrimeRepConfig{.rep_bits = rep_bits, .domain = "vc.tuples"};
  }
  [[nodiscard]] PrimeRepConfig doc_prime_config() const {
    return PrimeRepConfig{.rep_bits = rep_bits, .domain = "vc.docs"};
  }
  [[nodiscard]] PrimeRepConfig dict_prime_config() const {
    return PrimeRepConfig{.rep_bits = rep_bits, .domain = "vc.dict"};
  }

  // Throws UsageError unless rep_bits >= 32, 2·rep_bits + 4 <= modulus_bits
  // (representatives stay below |n|/2 - 2 bits), interval_size >= 1 and
  // modulus_bits is even and at most 4096.  These values size allocations
  // (fixed-base tables, safe-prime halves), so a store reader checks them
  // before trusting a config section.
  void validate() const;

  // Canonical encoding (the epoch store's config section; the store's
  // param fingerprint hashes it).
  void write(ByteWriter& w) const;
  static VerifiableIndexConfig read(ByteReader& r);
};

// Everything the cloud holds for one indexed term.  Entries are immutable
// once published in a snapshot; an incremental update clones only the
// entries it touches and re-points the map at the clones.
struct IndexEntry {
  PostingList postings;
  IntervalIndex tuple_intervals;
  IntervalIndex doc_intervals;
  TermAttestation attestation;
  BloomAttestation bloom_attestation;
};

// Materializes one term's IndexEntry on first touch.  Store-backed
// snapshots (src/store) implement this over a memory-mapped epoch file so a
// cold restart parses only the terms queries actually reach; the returned
// entry is cached in the snapshot and shared by every later find().
// Implementations must be thread-safe and return a non-null entry for every
// rank the snapshot was constructed with.
class EntrySource {
 public:
  virtual ~EntrySource() = default;
  // `rank` is the term's position in the snapshot's sorted term list.
  [[nodiscard]] virtual std::shared_ptr<const IndexEntry> load(
      std::size_t rank, std::string_view term) const = 0;
  // Encoded bytes of the term's stored entry, when the source knows them
  // without a parse (mapped sources read the term directory).  Feeds the
  // publish pipeline's warm-budget accounting; 0 means unknown.
  [[nodiscard]] virtual std::uint64_t stored_bytes(std::size_t /*rank*/) const { return 0; }
};

class IndexSnapshot {
 public:
  using EntryMap = std::map<std::string, std::shared_ptr<const IndexEntry>, std::less<>>;

  IndexSnapshot(VerifiableIndexConfig config, std::uint64_t epoch, EntryMap entries,
                std::shared_ptr<const DictionaryIntervals> dict,
                std::shared_ptr<const DictAttestation> dict_attestation,
                std::shared_ptr<PrimeCache> tuple_primes,
                std::shared_ptr<PrimeCache> doc_primes);

  // Lazy (store-backed) snapshot: `terms` is the sorted term list,
  // `source` materializes entries on first find(), and max_posting_count
  // comes from the store header (the entries are not scanned at open).
  // entries() exposes the term set with null values until touched — the
  // serving core only reads its keys; consumers that need entry data go
  // through find().
  IndexSnapshot(VerifiableIndexConfig config, std::uint64_t epoch,
                std::vector<std::string> terms, std::shared_ptr<const EntrySource> source,
                std::size_t max_posting_count,
                std::shared_ptr<const DictionaryIntervals> dict,
                std::shared_ptr<const DictAttestation> dict_attestation,
                std::shared_ptr<PrimeCache> tuple_primes,
                std::shared_ptr<PrimeCache> doc_primes);

  [[nodiscard]] const IndexEntry* find(std::string_view term) const;

  // Pre-materializes `term`'s entry off the query path (CloudService's
  // warm stage).  Returns the entry's stored encoded
  // bytes when the source knows them (warm-budget accounting), 0 for an
  // unknown size or an eager snapshot (already resident), and leaves the
  // snapshot untouched when the term is absent.
  std::uint64_t warm(std::string_view term) const;

  [[nodiscard]] const VerifiableIndexConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t term_count() const { return entries_.size(); }
  [[nodiscard]] const EntryMap& entries() const { return entries_; }
  [[nodiscard]] const DictionaryIntervals& dictionary() const { return *dict_; }
  [[nodiscard]] const DictAttestation& dict_attestation() const { return *dict_attestation_; }

  // The prime caches are append-only and internally synchronized, so the
  // serving side may extend them while snapshots share them (§III-D3).
  [[nodiscard]] PrimeCache& tuple_primes() const { return *tuple_primes_; }
  [[nodiscard]] PrimeCache& doc_primes() const { return *doc_primes_; }

  // Longest posting list in this snapshot; sizes the prover's fixed-base
  // exponentiation table.
  [[nodiscard]] std::size_t max_posting_count() const { return max_posting_count_; }

  // Optional materialized witness tier (vindex/witness_tier.hpp).  Attached
  // once after construction — by the publish path (freshly built tier) or
  // the store's open path (lazy mapped tier) — and read by every Prover
  // built over this snapshot.  The atomic store keeps attach legal on a
  // snapshot already shared across threads; proof bytes are identical with
  // or without a tier, so a late attach only changes latency.
  void attach_tier(std::shared_ptr<const WitnessTier> tier) const {
    tier_.store(std::move(tier), std::memory_order_release);
  }
  [[nodiscard]] std::shared_ptr<const WitnessTier> witness_tier() const {
    return tier_.load(std::memory_order_acquire);
  }

 private:
  // One lazily-filled entry slot.  call_once publishes the materialized
  // entry with the synchronization find() needs to hand it to concurrent
  // readers without further locking.
  struct LazySlot {
    std::once_flag once;
    std::shared_ptr<const IndexEntry> entry;
  };

  VerifiableIndexConfig config_;
  std::uint64_t epoch_ = 0;
  EntryMap entries_;
  std::shared_ptr<const DictionaryIntervals> dict_;
  std::shared_ptr<const DictAttestation> dict_attestation_;
  std::shared_ptr<PrimeCache> tuple_primes_;
  std::shared_ptr<PrimeCache> doc_primes_;
  std::size_t max_posting_count_ = 0;
  mutable std::atomic<std::shared_ptr<const WitnessTier>> tier_;

  // Lazy mode only (store-backed snapshots).
  std::shared_ptr<const EntrySource> source_;
  std::vector<std::string_view> lazy_terms_;  // sorted views into entries_ keys
  mutable std::unique_ptr<LazySlot[]> lazy_slots_;
};

using SnapshotPtr = std::shared_ptr<const IndexSnapshot>;

}  // namespace vc
