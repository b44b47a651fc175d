#include "vindex/index_builder.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "bloom/compressed_bloom.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"
#include "support/stopwatch.hpp"
#include "support/threadpool.hpp"

namespace vc {

IndexEntry IndexBuilder::build_entry(const std::string& term, const PostingList& postings,
                                     const AccumulatorContext& owner_ctx,
                                     const SigningKey& owner_key) const {
  IndexEntry e;
  e.postings = postings;
  U64Set tuples = InvertedIndex::tuple_set(postings);
  U64Set docs = InvertedIndex::doc_set(postings);
  // tuple_set is sorted by construction (doc_id major); doc ids are sorted.
  std::sort(tuples.begin(), tuples.end());
  IntervalConfig icfg{.interval_size = config_.interval_size};
  e.tuple_intervals = IntervalIndex::build(owner_ctx, tuples, *tuple_primes_, icfg);
  e.doc_intervals = IntervalIndex::build(owner_ctx, docs, *doc_primes_, icfg);

  std::vector<Bigint> tuple_reps, doc_reps;
  tuple_reps.reserve(tuples.size());
  doc_reps.reserve(docs.size());
  for (std::uint64_t t : tuples) tuple_reps.push_back(tuple_primes_->get(t));
  for (std::uint64_t d : docs) doc_reps.push_back(doc_primes_->get(d));

  TermStatement stmt;
  stmt.term = term;
  stmt.tuple_acc = owner_ctx.accumulate(tuple_reps);
  stmt.doc_acc = owner_ctx.accumulate(doc_reps);
  stmt.tuple_root = e.tuple_intervals.root();
  stmt.doc_root = e.doc_intervals.root();
  stmt.posting_count = postings.size();
  stmt.postings_digest = postings_digest(postings);
  stmt.epoch = epoch_;
  e.attestation = TermAttestation{stmt, owner_key.sign(stmt.encode())};

  BloomStatement bstmt;
  bstmt.term = term;
  bstmt.doc_bloom = compress_bloom(CountingBloom::from_set(config_.bloom, docs));
  bstmt.epoch = epoch_;
  e.bloom_attestation = BloomAttestation{bstmt, owner_key.sign(bstmt.encode())};
  return e;
}

void IndexBuilder::begin_mutation() {
  ++epoch_;
  cached_snapshot_.reset();
  retired_bases_.clear();
}

SnapshotPtr IndexBuilder::snapshot() const {
  if (!cached_snapshot_) {
    cached_snapshot_ = std::make_shared<IndexSnapshot>(
        config_, epoch_, entries_, dict_, dict_attestation_, tuple_primes_, doc_primes_);
  }
  return cached_snapshot_;
}

IndexBuilder IndexBuilder::build(InvertedIndex index, const AccumulatorContext& owner_ctx,
                                 const SigningKey& owner_key, VerifiableIndexConfig config,
                                 ThreadPool& pool, BalanceStrategy strategy,
                                 BuildStats* stats) {
  IndexBuilder vidx(config);
  vidx.index_ = std::move(index);
  vidx.epoch_ = 1;  // the initial build commits epoch 1

  // Phase 1 (offline, §III-D3): pre-compute all prime representatives.
  // Work is partitioned across the pool by the chosen strategy.
  Stopwatch sw;
  std::vector<const PostingList*> lists;
  std::vector<const std::string*> term_names;
  std::vector<std::size_t> record_counts;
  for (const auto& [term, list] : vidx.index_.terms()) {
    term_names.push_back(&term);
    lists.push_back(&list);
    record_counts.push_back(list.size());
  }
  auto groups = partition_terms(record_counts, std::max<std::size_t>(1, pool.worker_count()),
                                strategy);
  pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    for (std::size_t t : groups[gi]) {
      for (const Posting& p : *lists[t]) {
        (void)vidx.tuple_primes_->get(InvertedIndex::encode_tuple(p));
        (void)vidx.doc_primes_->get(InvertedIndex::encode_doc(p.doc_id));
      }
    }
  });
  double prime_seconds = sw.seconds();

  // Phase 2: per-term accumulators, interval trees, Blooms, signatures.
  // The context carries the pool so per-interval accumulation and the
  // batched middle-layer witnesses inside each entry also fan out; the
  // cooperative parallel_for makes the nesting deadlock-free.
  AccumulatorContext pooled_ctx = owner_ctx;
  pooled_ctx.set_pool(&pool);
  sw.reset();
  std::vector<IndexEntry> built(lists.size());
  pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    for (std::size_t t : groups[gi]) {
      built[t] = vidx.build_entry(*term_names[t], *lists[t], pooled_ctx, owner_key);
    }
  });
  for (std::size_t t = 0; t < built.size(); ++t) {
    vidx.max_posting_count_ = std::max(vidx.max_posting_count_, lists[t]->size());
    vidx.entries_.emplace(*term_names[t],
                          std::make_shared<const IndexEntry>(std::move(built[t])));
  }
  double accumulate_seconds = sw.seconds();

  // Phase 3: dictionary gap intervals (unknown keywords, §III-D4).
  sw.reset();
  vidx.rebuild_dictionary(pooled_ctx, owner_key);
  double dict_seconds = sw.seconds();

  if (stats != nullptr) {
    stats->prime_precompute_seconds = prime_seconds;
    stats->accumulate_seconds = accumulate_seconds;
    stats->dictionary_seconds = dict_seconds;
    stats->records = vidx.index_.record_count();
    stats->terms = vidx.entries_.size();
  }
  return vidx;
}

const IndexEntry* IndexBuilder::find(std::string_view term) const {
  auto it = entries_.find(term);
  return it == entries_.end() ? nullptr : it->second.get();
}

void IndexBuilder::rebuild_dictionary(const AccumulatorContext& owner_ctx,
                                      const SigningKey& owner_key) {
  cached_snapshot_.reset();
  dict_dirty_ = true;
  auto dict = std::make_shared<DictionaryIntervals>(DictionaryIntervals::build(
      owner_ctx, index_.dictionary(), config_.dict_prime_config()));
  DictStatement stmt{dict->root(), dict->word_count(), index_.doc_count(), epoch_};
  dict_attestation_ = std::make_shared<DictAttestation>(
      DictAttestation{stmt, owner_key.sign(stmt.encode())});
  dict_ = std::move(dict);
}

void IndexBuilder::note_full_publish() {
  last_published_epoch_ = epoch_;
  published_doc_watermark_ = index_.doc_count();
  dirty_terms_.clear();
  removed_terms_.clear();
  delta_bases_.clear();
  dict_dirty_ = false;
}

void IndexBuilder::note_delta_base(const std::string& term) {
  auto it = entries_.find(term);
  // try_emplace: the first mutation since the publish keeps its view.
  delta_bases_.try_emplace(term, it == entries_.end() ? nullptr : it->second);
}

std::optional<IndexDelta> IndexBuilder::publish_delta() {
  // A delta needs a published predecessor to chain to, and at least one
  // committed mutation since it.
  if (last_published_epoch_ == 0 || epoch_ == last_published_epoch_) return std::nullopt;
  if (dirty_terms_.empty() && removed_terms_.empty() && !dict_dirty_) return std::nullopt;

  IndexDelta d;
  d.epoch = epoch_;
  d.base_epoch = last_published_epoch_;
  d.config = config_;
  for (const std::string& term : dirty_terms_) {
    auto it = entries_.find(term);
    if (it == entries_.end()) throw Error("dirty term vanished from the index: " + term);
    d.touched.emplace(term, it->second);
    auto base = delta_bases_.find(term);
    if (base != delta_bases_.end() && base->second != nullptr) d.bases.emplace(*base);
  }
  d.removed.assign(removed_terms_.begin(), removed_terms_.end());
  d.dict_changed = dict_dirty_;
  if (dict_dirty_) {
    d.dict = dict_;
    d.dict_attestation = dict_attestation_;
  }
  d.max_posting_count = max_posting_count_;

  // Representatives only for postings new since the last publish.  Older
  // postings already had their primes referenced by the base epoch (docIDs
  // are append-only, so the watermark is exact), and the overlay reader
  // chains the base's prime backings — shipping them again would make the
  // delta O(postings of touched terms) instead of O(added postings), which
  // under a Zipf workload is the difference between flat and O(corpus)
  // publish latency.
  std::vector<std::uint64_t> tuple_keys, doc_keys;
  for (const auto& [term, e] : d.touched) {
    // Postings are sorted by docID, so the new ones are a suffix: find it
    // instead of walking a hot term's whole list.
    auto fresh = std::partition_point(
        e->postings.begin(), e->postings.end(),
        [&](const Posting& p) { return p.doc_id < published_doc_watermark_; });
    for (const Posting& p : std::span(fresh, e->postings.end())) {
      tuple_keys.push_back(InvertedIndex::encode_tuple(p));
      doc_keys.push_back(InvertedIndex::encode_doc(p.doc_id));
    }
  }
  auto dedupe = [](std::vector<std::uint64_t>& keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  };
  dedupe(tuple_keys);
  dedupe(doc_keys);
  d.tuple_primes.reserve(tuple_keys.size());
  for (std::uint64_t k : tuple_keys) d.tuple_primes.emplace_back(k, tuple_primes_->get(k));
  d.doc_primes.reserve(doc_keys.size());
  for (std::uint64_t k : doc_keys) d.doc_primes.emplace_back(k, doc_primes_->get(k));

  last_published_epoch_ = epoch_;
  published_doc_watermark_ = index_.doc_count();
  dirty_terms_.clear();
  removed_terms_.clear();
  retired_bases_ = std::exchange(delta_bases_, {});
  dict_dirty_ = false;
  return d;
}

IndexBuilder IndexBuilder::from_snapshot(const SnapshotPtr& snap) {
  if (snap == nullptr) throw UsageError("from_snapshot requires a snapshot");
  IndexBuilder vidx(snap->config());
  vidx.epoch_ = snap->epoch();
  std::map<std::string, PostingList, std::less<>> postings;
  for (const auto& [term, unused] : snap->entries()) {
    const IndexEntry* e = snap->find(term);
    if (e == nullptr) throw Error("snapshot entry vanished for term " + term);
    vidx.entries_.emplace_hint(vidx.entries_.end(), term,
                               std::shared_ptr<const IndexEntry>(snap, e));
    postings.emplace_hint(postings.end(), term, e->postings);
  }
  vidx.index_ = InvertedIndex::from_postings(std::move(postings));
  vidx.dict_ = std::shared_ptr<const DictionaryIntervals>(snap, &snap->dictionary());
  vidx.dict_attestation_ =
      std::shared_ptr<const DictAttestation>(snap, &snap->dict_attestation());
  vidx.tuple_primes_ = std::shared_ptr<PrimeCache>(snap, &snap->tuple_primes());
  vidx.doc_primes_ = std::shared_ptr<PrimeCache>(snap, &snap->doc_primes());
  vidx.max_posting_count_ = snap->max_posting_count();
  vidx.note_full_publish();
  return vidx;
}

void IndexBuilder::validate(const VerifyKey& owner_key) const {
  auto require = [](bool ok, const std::string& what) {
    if (!ok) throw VerifyError(what);
  };
  require(entries_.size() == index_.term_count(),
          "entry count does not match the inverted index");
  for (const auto& [term, ep] : entries_) {
    const IndexEntry& e = *ep;
    require(index_.find(term) != nullptr, "entry term missing from index: " + term);
    require(e.attestation.verify(owner_key), "term attestation invalid: " + term);
    require(e.bloom_attestation.verify(owner_key), "bloom attestation invalid: " + term);
    require(e.attestation.stmt.term == term, "attestation names wrong term: " + term);
    require(e.bloom_attestation.stmt.term == term, "bloom names wrong term: " + term);
    require(e.attestation.stmt.posting_count == e.postings.size(),
            "posting count mismatch: " + term);
    require(e.attestation.stmt.postings_digest == postings_digest(e.postings),
            "postings digest mismatch: " + term);
    require(e.attestation.stmt.tuple_root == e.tuple_intervals.root(),
            "tuple interval root mismatch: " + term);
    require(e.attestation.stmt.doc_root == e.doc_intervals.root(),
            "doc interval root mismatch: " + term);
    require(decompress_bloom(e.bloom_attestation.stmt.doc_bloom) ==
                CountingBloom::from_set(config_.bloom, InvertedIndex::doc_set(e.postings)),
            "bloom filter does not match the postings: " + term);
    require(e.tuple_intervals.element_count() == e.postings.size(),
            "tuple interval cardinality mismatch: " + term);
    require(e.doc_intervals.element_count() == e.postings.size(),
            "doc interval cardinality mismatch: " + term);
    require(e.attestation.stmt.epoch >= 1 && e.attestation.stmt.epoch <= epoch_,
            "attestation epoch out of range: " + term);
    require(e.bloom_attestation.stmt.epoch >= 1 && e.bloom_attestation.stmt.epoch <= epoch_,
            "bloom attestation epoch out of range: " + term);
  }
  require(dict_attestation_->verify(owner_key), "dictionary attestation invalid");
  require(dict_attestation_->stmt.gap_root == dict_->root(), "dictionary root mismatch");
  require(dict_attestation_->stmt.word_count == dict_->word_count(),
          "dictionary word count mismatch");
  require(dict_->word_count() == index_.term_count(),
          "dictionary does not cover the index terms");
  require(dict_attestation_->stmt.epoch <= epoch_, "dictionary epoch out of range");
}

namespace {

// The owner update path's stages (docs/OBSERVABILITY.md): histogram-only
// spans whose readings also fill UpdateTimings.
struct UpdateStages {
  obs::Histogram& flat = obs::MetricsRegistry::global().stage("update_flat_accumulator");
  obs::Histogram& bloom = obs::MetricsRegistry::global().stage("update_bloom");
  obs::Histogram& interval = obs::MetricsRegistry::global().stage("update_interval");
  obs::Histogram& sign = obs::MetricsRegistry::global().stage("update_sign");
  obs::Histogram& dictionary = obs::MetricsRegistry::global().stage("update_dictionary");
};

const UpdateStages& update_stages() {
  static const UpdateStages stages;
  return stages;
}

// A posting list's tuple and docID elements, each sorted.
struct PostingElements {
  U64Set tuples, docs;

  explicit PostingElements(const PostingList& postings) {
    for (const Posting& p : postings) {
      tuples.push_back(InvertedIndex::encode_tuple(p));
      docs.push_back(InvertedIndex::encode_doc(p.doc_id));
    }
    std::sort(tuples.begin(), tuples.end());
    std::sort(docs.begin(), docs.end());
  }
};

std::vector<Bigint> representatives(const U64Set& elements, PrimeCache& primes) {
  std::vector<Bigint> reps;
  reps.reserve(elements.size());
  for (std::uint64_t v : elements) reps.push_back(primes.get(v));
  return reps;
}

}  // namespace

void IndexBuilder::update_entry(const std::string& term,
                                std::shared_ptr<const IndexEntry>& entry,
                                const PostingList& added, const PostingList& removed,
                                const AccumulatorContext& owner_ctx,
                                const SigningKey& owner_key, UpdateTimings& t) {
  const UpdateStages& stages = update_stages();
  // Copy-on-write: clone the touched entry so snapshots from earlier
  // epochs keep serving the pre-update version untouched.
  auto clone = std::make_shared<IndexEntry>(*entry);
  IndexEntry& e = *clone;
  e.postings = *index_.find(term);
  const PostingElements add(added), gone(removed);

  // Eq 5 over the added representatives, Eq 6 (the inverse exponent mod
  // phi(n)) over the removed ones: cost proportional to the changed
  // elements only, independent of the existing set size.
  TermStatement stmt = e.attestation.stmt;
  {
    obs::Span span(stages.flat);
    if (!added.empty()) {
      stmt.tuple_acc = owner_ctx.add_elements(stmt.tuple_acc,
                                              representatives(add.tuples, *tuple_primes_));
      stmt.doc_acc = owner_ctx.add_elements(stmt.doc_acc,
                                            representatives(add.docs, *doc_primes_));
    }
    if (!removed.empty()) {
      stmt.tuple_acc = owner_ctx.delete_elements(stmt.tuple_acc,
                                                 representatives(gone.tuples, *tuple_primes_));
      stmt.doc_acc = owner_ctx.delete_elements(stmt.doc_acc,
                                               representatives(gone.docs, *doc_primes_));
    }
    t.flat_accumulator_seconds += span.seconds();
  }

  // Bloom: decompress the signed filter, move its counters, recompress (§V-D).
  CompressedBloom recompressed;
  {
    obs::Span span(stages.bloom);
    CountingBloom stored = decompress_bloom(e.bloom_attestation.stmt.doc_bloom);
    for (std::uint64_t d : gone.docs) stored.remove(d);
    for (std::uint64_t d : add.docs) stored.add(d);
    recompressed = compress_bloom(stored);
    t.bloom_seconds += span.seconds();
  }

  // Interval trees: only the touched intervals re-accumulate.
  {
    obs::Span span(stages.interval);
    e.tuple_intervals.update(owner_ctx, add.tuples, gone.tuples, *tuple_primes_);
    e.doc_intervals.update(owner_ctx, add.docs, gone.docs, *doc_primes_);
    stmt.tuple_root = e.tuple_intervals.root();
    stmt.doc_root = e.doc_intervals.root();
    t.interval_seconds += span.seconds();
  }

  // Re-sign the updated statements at the new epoch.
  {
    obs::Span span(stages.sign);
    stmt.posting_count = e.postings.size();
    stmt.postings_digest = postings_digest(e.postings);
    stmt.epoch = epoch_;
    e.attestation = TermAttestation{stmt, owner_key.sign(stmt.encode())};
    BloomStatement bstmt{term, std::move(recompressed), epoch_};
    e.bloom_attestation = BloomAttestation{bstmt, owner_key.sign(bstmt.encode())};
    t.sign_seconds += span.seconds();
  }
  entry = std::move(clone);
}

void IndexBuilder::update_dictionary(const AccumulatorContext& owner_ctx,
                                     const SigningKey& owner_key, UpdateTimings& t) {
  obs::Span span(update_stages().dictionary);
  rebuild_dictionary(owner_ctx, owner_key);
  t.dictionary_seconds = span.seconds();
}

UpdateTimings IndexBuilder::add_documents(const std::vector<Document>& docs,
                                          const AccumulatorContext& owner_ctx,
                                          const SigningKey& owner_key, bool rebuild_dict) {
  if (!owner_ctx.has_trapdoor()) {
    throw UsageError("add_documents requires the owner context");
  }
  begin_mutation();
  UpdateTimings t;

  // Index the new documents, collecting per-term added postings.
  std::map<std::string, PostingList, std::less<>> added;
  for (const Document& doc : docs) {
    for (const std::string& term : index_.add_document(doc.id, doc.text)) {
      const PostingList& list = *index_.find(term);
      added[term].push_back(list.back());
      ++t.added_postings;
    }
  }
  t.touched_terms = added.size();
  bool new_terms = false;

  for (auto& [term, new_postings] : added) {
    note_delta_base(term);
    dirty_terms_.insert(term);
    removed_terms_.erase(term);  // a re-appearing term is an upsert again
    max_posting_count_ = std::max(max_posting_count_, index_.find(term)->size());
    auto it = entries_.find(term);
    if (it != entries_.end()) {
      update_entry(term, it->second, new_postings, {}, owner_ctx, owner_key, t);
      continue;
    }
    // Brand-new term: build its entry from scratch (small list).
    Stopwatch sw;
    IndexEntry e = build_entry(term, *index_.find(term), owner_ctx, owner_key);
    t.new_term_seconds += sw.seconds();
    ++t.new_terms;
    entries_.emplace(term, std::make_shared<const IndexEntry>(std::move(e)));
    new_terms = true;
  }

  if (rebuild_dict && new_terms) update_dictionary(owner_ctx, owner_key, t);
  return t;
}

UpdateTimings IndexBuilder::remove_documents(std::span<const std::uint64_t> doc_ids,
                                             const AccumulatorContext& owner_ctx,
                                             const SigningKey& owner_key,
                                             bool rebuild_dict) {
  if (!owner_ctx.has_trapdoor()) {
    throw UsageError("remove_documents requires the owner context");
  }
  begin_mutation();
  UpdateTimings t;
  U64Set sorted_ids(doc_ids.begin(), doc_ids.end());
  std::sort(sorted_ids.begin(), sorted_ids.end());

  auto removed = index_.remove_documents(sorted_ids);
  t.touched_terms = removed.size();
  bool terms_vanished = false;
  bool max_shrank = false;  // a term holding the longest list lost postings

  for (auto& [term, gone] : removed) {
    auto it = entries_.find(term);
    if (it == entries_.end()) continue;  // defensive; should not happen
    note_delta_base(term);
    max_shrank = max_shrank || it->second->postings.size() == max_posting_count_;
    t.added_postings += gone.size();  // postings *changed* by this update

    if (index_.find(term) != nullptr) {
      dirty_terms_.insert(term);
      update_entry(term, it->second, {}, gone, owner_ctx, owner_key, t);
      continue;
    }
    // Every posting of this term is gone: drop the whole entry.
    entries_.erase(it);
    terms_vanished = true;
    removed_terms_.insert(term);
    dirty_terms_.erase(term);
  }

  if (max_shrank) {
    max_posting_count_ = 0;
    for (const auto& [term, e] : entries_) {
      max_posting_count_ = std::max(max_posting_count_, e->postings.size());
    }
  }
  if (rebuild_dict && terms_vanished) update_dictionary(owner_ctx, owner_key, t);
  return t;
}

}  // namespace vc
