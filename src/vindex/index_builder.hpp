// The owner-side verifiable index builder (§III-B): the mutable half of the
// builder/snapshot split.
//
// IndexBuilder owns the inverted index and maps every indexed term to
//   - its inverted-index posting list of (docID, tf) tuples,
//   - two flat RSA accumulators (tuples; docIDs),
//   - two interval trees (tuples; docIDs) for fast online witnesses,
//   - an owner-signed counting Bloom filter of the docID set,
//   - owner signatures binding all of the above to the term,
// plus the dictionary gap-interval structure for unknown keywords.
//
// Every committed mutation (build, add_documents, remove_documents) advances
// an epoch counter that is stamped into every re-signed statement.  The
// serving side never touches the builder: snapshot() freezes the current
// state into an immutable, epoch-numbered IndexSnapshot that shares every
// untouched entry with its predecessor (copy-on-write — an incremental
// update clones only the entries it mutates).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "index/inverted_index.hpp"
#include "vindex/balance.hpp"
#include "vindex/index_snapshot.hpp"

namespace vc {

class ThreadPool;

struct BuildStats {
  double prime_precompute_seconds = 0;  // Table II's cost, paid offline
  double accumulate_seconds = 0;        // flat + interval accumulators
  double bloom_seconds = 0;
  double sign_seconds = 0;
  double dictionary_seconds = 0;
  std::uint64_t records = 0;
  std::size_t terms = 0;
};

struct UpdateTimings {
  double flat_accumulator_seconds = 0;  // Eq 5 updates (Accumulator scheme)
  double bloom_seconds = 0;             // decompress + add + recompress (Bloom)
  double interval_seconds = 0;          // interval-tree maintenance (Hybrid extra)
  double sign_seconds = 0;
  double dictionary_seconds = 0;
  double new_term_seconds = 0;          // entries built from scratch for new terms
  std::size_t touched_terms = 0;
  std::size_t new_terms = 0;
  std::size_t added_postings = 0;

  [[nodiscard]] double accumulator_scheme_seconds() const {
    return flat_accumulator_seconds + sign_seconds;
  }
  [[nodiscard]] double bloom_scheme_seconds() const { return bloom_seconds + sign_seconds; }
  [[nodiscard]] double hybrid_scheme_seconds() const {
    return flat_accumulator_seconds + bloom_seconds + interval_seconds + sign_seconds;
  }
};

// One publish's worth of committed changes, ready for the epoch store's
// record format (store/epoch_codec.hpp): the touched terms' re-signed
// entries (accumulators already advanced via Eq 5/6), the terms whose
// posting lists emptied out, the rebuilt dictionary when it changed, and
// the prime representatives the touched postings reference — everything a
// reader needs to overlay this epoch on top of `base_epoch` without the
// O(index) payload of a full snapshot.  The store writes a snapshot as the
// same record with no base (base_epoch 0, every term touched).
struct IndexDelta {
  std::uint64_t epoch = 0;       // the epoch this delta commits
  std::uint64_t base_epoch = 0;  // the chain predecessor it applies to; 0: none
  VerifiableIndexConfig config;
  std::map<std::string, std::shared_ptr<const IndexEntry>, std::less<>> touched;
  // The entries at `base_epoch` of the touched terms it already held.  The
  // codec ships each such term as a patch against its base entry; a touched
  // term without one ships in full.
  std::map<std::string, std::shared_ptr<const IndexEntry>, std::less<>> bases;
  std::vector<std::string> removed;  // sorted; absent from `touched`
  bool dict_changed = false;
  std::shared_ptr<const DictionaryIntervals> dict;             // when dict_changed
  std::shared_ptr<const DictAttestation> dict_attestation;     // when dict_changed
  std::size_t max_posting_count = 0;  // over the whole index at `epoch`
  // Representatives for postings of documents added since the last publish,
  // sorted by element.  Older postings' representatives resolve through the
  // chain's base backings (docIDs are append-only, so anything at or below
  // the publish watermark was already referenced there) and, in the worst
  // case, recompute deterministically from the element.
  std::vector<std::pair<std::uint64_t, Bigint>> tuple_primes;
  std::vector<std::pair<std::uint64_t, Bigint>> doc_primes;
};

class IndexBuilder {
 public:
  // Owner-side build.  `workers` threads pre-compute prime representatives
  // and per-term structures, partitioned by `strategy` (Fig 9).  The built
  // index starts at epoch 1.
  static IndexBuilder build(InvertedIndex index, const AccumulatorContext& owner_ctx,
                            const SigningKey& owner_key, VerifiableIndexConfig config,
                            ThreadPool& pool,
                            BalanceStrategy strategy = BalanceStrategy::kRecordBased,
                            BuildStats* stats = nullptr);

  [[nodiscard]] const IndexEntry* find(std::string_view term) const;
  [[nodiscard]] const InvertedIndex& index() const { return index_; }
  [[nodiscard]] const VerifiableIndexConfig& config() const { return config_; }
  [[nodiscard]] std::size_t term_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] const DictionaryIntervals& dictionary() const { return *dict_; }
  [[nodiscard]] const DictAttestation& dict_attestation() const { return *dict_attestation_; }

  // The cloud-side prime manager caches (pre-computed at build: §III-D3).
  [[nodiscard]] PrimeCache& tuple_primes() const { return *tuple_primes_; }
  [[nodiscard]] PrimeCache& doc_primes() const { return *doc_primes_; }

  // Freezes the current state into an immutable snapshot stamped with the
  // current epoch.  Cheap: the snapshot shares every entry, the dictionary
  // and the prime caches through shared_ptr; repeated calls between
  // mutations return the same object.
  [[nodiscard]] SnapshotPtr snapshot() const;

  // Incremental update (§II-D, Fig 8): appends new documents (docIDs must
  // exceed all indexed ones), updating flat accumulators with Eq 5, Bloom
  // filters by counter increments, interval trees incrementally, and
  // re-signing touched statements — the untouched entries are shared with
  // the previous epoch's snapshot.  Requires the owner context + key.
  // `rebuild_dictionary` re-derives the gap structure when new terms
  // appeared (skippable for measurement runs that follow the paper's Fig 8
  // scope; a skipped rebuild leaves unknown-keyword proofs stale for the
  // new terms until the next rebuild).
  UpdateTimings add_documents(const std::vector<Document>& docs,
                              const AccumulatorContext& owner_ctx,
                              const SigningKey& owner_key, bool rebuild_dictionary = true);

  // Incremental delete (§II-D, Eq 6): removes documents entirely.  Flat
  // accumulators shrink via the modular-inverse update, Bloom counters
  // decrement, interval trees drop the elements from cloned entries.  Terms
  // whose posting lists empty out disappear from the index (and from the
  // dictionary when `rebuild_dictionary` is set).
  UpdateTimings remove_documents(std::span<const std::uint64_t> doc_ids,
                                 const AccumulatorContext& owner_ctx,
                                 const SigningKey& owner_key,
                                 bool rebuild_dictionary = true);

  // Rebuilds the dictionary gap structure + attestation from current terms.
  void rebuild_dictionary(const AccumulatorContext& owner_ctx, const SigningKey& owner_key);

  // --- delta publication ---------------------------------------------------
  // Every committed mutation records which terms it touched or removed and
  // whether the dictionary was rebuilt.  publish_delta() drains that state
  // into an IndexDelta chained to the last published epoch, so the publish
  // path ships O(touched) bytes instead of O(index).  Returns nullopt when
  // there is nothing to ship: no full epoch has been published yet (the
  // chain needs a base snapshot), or no mutation committed since the last
  // publish.  The caller hands the result to EpochStore::publish_delta().
  [[nodiscard]] std::optional<IndexDelta> publish_delta();

  // Records that the current epoch was published as a full snapshot,
  // resetting the dirty state so the next publish_delta() chains to it.
  void note_full_publish();

  // Terms dirtied (touched or removed) since the last publish — what the
  // next publish_delta() would ship.
  [[nodiscard]] std::size_t dirty_term_count() const {
    return dirty_terms_.size() + removed_terms_.size();
  }
  [[nodiscard]] std::uint64_t last_published_epoch() const { return last_published_epoch_; }

  // --- outsourcing ---------------------------------------------------------
  // The owner outsources the index by publishing its snapshot into the
  // epoch store (store/epoch_store.hpp), the only on-disk form.  This
  // reopens a builder from a published epoch: every entry is materialized
  // and aliased to `snap` (the dictionary, its attestation and the prime
  // caches are shared with it too), the inverted index is rebuilt from the
  // entries' postings with doc_count() = 1 + the highest docID, and the
  // delta state is reset so the next publish_delta() chains to snap's epoch.
  static IndexBuilder from_snapshot(const SnapshotPtr& snap);

  // The receipt check the cloud performs before acknowledging: every
  // attestation must verify under the owner's key, and every entry must be
  // consistent with the inverted index it claims to cover.  Throws
  // VerifyError naming the first failed check.
  void validate(const VerifyKey& owner_key) const;

 private:
  explicit IndexBuilder(VerifiableIndexConfig config)
      : config_(config),
        dict_(std::make_shared<DictionaryIntervals>()),
        dict_attestation_(std::make_shared<DictAttestation>()),
        tuple_primes_(std::make_shared<PrimeCache>(config.tuple_prime_config())),
        doc_primes_(std::make_shared<PrimeCache>(config.doc_prime_config())) {}

  IndexEntry build_entry(const std::string& term, const PostingList& postings,
                         const AccumulatorContext& owner_ctx, const SigningKey& owner_key) const;

  // The one per-term step of add_documents and remove_documents (§II-D,
  // Eq 5/6): moves a surviving term's entry by the postings `added` to and
  // `removed` from its list — both flat accumulators, the signed Bloom
  // filter, both interval trees — and re-signs it at the current epoch.
  // `entry` is replaced by an updated clone (copy-on-write), so snapshots of
  // earlier epochs keep serving the old version.  Phases are timed into `t`.
  void update_entry(const std::string& term, std::shared_ptr<const IndexEntry>& entry,
                    const PostingList& added, const PostingList& removed,
                    const AccumulatorContext& owner_ctx, const SigningKey& owner_key,
                    UpdateTimings& t);
  // rebuild_dictionary() on the update path, timed into `t`.
  void update_dictionary(const AccumulatorContext& owner_ctx, const SigningKey& owner_key,
                         UpdateTimings& t);

  // Marks the start of a committed mutation: bumps the epoch that re-signed
  // statements will carry and invalidates the cached snapshot.
  void begin_mutation();

  // Records `term`'s published entry before its first mutation since the
  // last publish (see delta_bases_).
  void note_delta_base(const std::string& term);

  VerifiableIndexConfig config_;
  InvertedIndex index_;
  IndexSnapshot::EntryMap entries_;
  std::shared_ptr<const DictionaryIntervals> dict_;
  std::shared_ptr<const DictAttestation> dict_attestation_;
  std::shared_ptr<PrimeCache> tuple_primes_;  // stable identity across moves
  std::shared_ptr<PrimeCache> doc_primes_;
  std::uint64_t epoch_ = 0;
  // Longest posting list, kept exact across mutations so publish_delta()
  // need not scan every entry.
  std::size_t max_posting_count_ = 0;
  mutable SnapshotPtr cached_snapshot_;

  // Delta-publication dirty tracking (see publish_delta).  A term is in at
  // most one of the two sets; re-adding a removed term moves it back.
  std::set<std::string, std::less<>> dirty_terms_;
  std::set<std::string, std::less<>> removed_terms_;
  // Every dirty or removed term's entry as of the last publish (null for a
  // term new since), taken at its first mutation after that publish:
  // publish_delta() hands the touched ones over as IndexDelta::bases.
  IndexSnapshot::EntryMap delta_bases_;
  // The last delta's bases, released at the next mutation instead of when
  // the delta is dropped: a hot term's old version is thousands of bigints,
  // and freeing them belongs with the update that replaced them, not on
  // the publish path.
  IndexSnapshot::EntryMap retired_bases_;
  bool dict_dirty_ = false;
  std::uint64_t last_published_epoch_ = 0;  // 0: no publish recorded yet
  // DocIDs below this were covered by the last published epoch; deltas ship
  // prime representatives only for postings at or above it.
  std::uint32_t published_doc_watermark_ = 0;
};

}  // namespace vc
