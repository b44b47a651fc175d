#include "advtest/malicious_cloud.hpp"

#include <algorithm>

#include "bloom/compressed_bloom.hpp"
#include "support/errors.hpp"
#include "text/tokenizer.hpp"

namespace vc::advtest {

// --- test-only friend accessors ------------------------------------------
//
// These are the narrow hooks the production headers befriend.  They expose
// exactly what a malicious operator has anyway — the cloud's own key, the
// index internals it stores, the witness builders it runs — without making
// any of it part of the production API surface.

struct ProverAccess {
  static MembershipEvidence tuple_membership(const Prover& p,
                                             const IndexEntry& e,
                                             std::span<const std::uint64_t> tuples,
                                             bool interval_form) {
    return p.prove_membership(Prover::Side::kTuples, e, tuples, interval_form);
  }
  static MembershipEvidence doc_membership(const Prover& p, const IndexEntry& e,
                                           std::span<const std::uint64_t> docs,
                                           bool interval_form) {
    return p.prove_membership(Prover::Side::kDocs, e, docs, interval_form);
  }
  static NonmembershipEvidence doc_nonmembership(const Prover& p,
                                                 const IndexEntry& e,
                                                 std::span<const std::uint64_t> docs,
                                                 bool interval_form) {
    return p.prove_doc_nonmembership(e, docs, interval_form);
  }
  static BloomIntegrity bloom_integrity(const Prover& p, const SearchResult& result,
                                        std::span<const IndexEntry* const> entries,
                                        bool interval_form) {
    return p.make_bloom_integrity(result, entries, interval_form);
  }
};

struct CloudAccess {
  // Returning the shared_ptr keeps the pinned epoch's engine alive even if
  // the cloud publishes a new snapshot underneath the harness.
  static std::shared_ptr<const SearchEngine> engine(CloudService& c) {
    return c.current_state()->engine;
  }
  static const SigningKey& key(const CloudService& c) { return c.key_; }
};

struct BloomTamper {
  static std::vector<std::uint32_t>& counters(CountingBloom& b) { return b.counters_; }
};

struct IntervalAccess {
  static const Bigint& mid_witness(const IntervalIndex& idx, std::size_t k) {
    return idx.intervals_[k].mid_witness;
  }
};

namespace {

// Same choice the honest prover makes (§III-C): the smallest posting list.
std::size_t pick_base(std::span<const IndexEntry* const> entries) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i]->postings.size() < entries[best]->postings.size()) best = i;
  }
  return best;
}

void insert_sorted(U64Set& set, std::uint64_t v) {
  set.insert(std::lower_bound(set.begin(), set.end(), v), v);
}

}  // namespace

MaliciousCloud::MaliciousCloud(CloudService& cloud, SnapshotPtr snapshot,
                               AccumulatorContext public_ctx,
                               SnapshotPtr stale_snapshot)
    : cloud_(cloud),
      snap_(std::move(snapshot)),
      ctx_(std::move(public_ctx)),
      stale_snap_(std::move(stale_snapshot)),
      prover_(std::make_unique<Prover>(snap_, ctx_)) {
  if (stale_snap_ != nullptr) {
    stale_prover_ = std::make_unique<Prover>(stale_snap_, ctx_);
  }
}

MaliciousCloud::~MaliciousCloud() = default;

SearchResponse MaliciousCloud::sign(SearchResponse resp) const {
  resp.cloud_sig = CloudAccess::key(cloud_).sign(resp.payload_bytes());
  return resp;
}

const IndexEntry* MaliciousCloud::entry(const std::string& keyword) const {
  const auto* e = snap_->find(keyword);
  if (e == nullptr) throw UsageError("malicious cloud: keyword not indexed: " + keyword);
  return e;
}

std::vector<const IndexEntry*> MaliciousCloud::entries_for(
    const SearchResult& result) const {
  std::vector<const IndexEntry*> out;
  out.reserve(result.keywords.size());
  for (const auto& kw : result.keywords) out.push_back(entry(kw));
  return out;
}

const SearchResponse& MaliciousCloud::honest(const SignedQuery& query, SchemeKind scheme) {
  Keyed key{query.query.id, scheme};
  auto it = honest_cache_.find(key);
  if (it == honest_cache_.end()) {
    it = honest_cache_.emplace(key, CloudAccess::engine(cloud_)->search(query.query, scheme))
             .first;
  }
  return it->second;
}

CorrectnessProof MaliciousCloud::provable_correctness(const Prover& prover,
                                                      const IndexSnapshot& snap,
                                                      const SearchResult& result,
                                                      bool interval_form) const {
  // The malicious prover's stock move: when the claimed postings contain
  // tuples the index cannot argue for, prove the provable subset and attach
  // that evidence to the bigger claim.  Honest claims yield honest proofs;
  // inflated claims yield evidence the verifier cannot match to them.
  CorrectnessProof cp;
  cp.keywords.reserve(result.keywords.size());
  for (std::size_t i = 0; i < result.keywords.size(); ++i) {
    const auto* e = snap.find(result.keywords[i]);
    if (e == nullptr) throw UsageError("malicious cloud: keyword not indexed");
    U64Set claimed = InvertedIndex::tuple_set(result.postings[i]);
    std::sort(claimed.begin(), claimed.end());
    U64Set indexed = InvertedIndex::tuple_set(e->postings);
    std::sort(indexed.begin(), indexed.end());
    U64Set provable = set_intersection(claimed, indexed);
    cp.keywords.push_back(
        ProverAccess::tuple_membership(prover, *e, provable, interval_form));
  }
  return cp;
}

ForgedResponse MaliciousCloud::forge(const SignedQuery& query, ForgeryClass cls,
                                     SchemeKind scheme, std::uint64_t seed) {
  DeterministicRng root(seed, "vc.advtest.forge");
  DeterministicRng rng = root.fork(std::string(forgery_class_name(cls)) + ":" +
                                   std::to_string(query.query.id));
  switch (cls) {
    case ForgeryClass::kDropResultDoc:
      return forge_drop(honest(query, SchemeKind::kHybrid), scheme, rng);
    case ForgeryClass::kAddExtraDoc:
      return forge_add(honest(query, SchemeKind::kHybrid), scheme, rng);
    case ForgeryClass::kWitnessSubstitution:
      return forge_witness_substitution(honest(query, SchemeKind::kHybrid), rng);
    case ForgeryClass::kStaleAttestation:
      return forge_stale(query, scheme);
    case ForgeryClass::kEncodingSwap:
      return forge_encoding_swap(honest(query, SchemeKind::kHybrid), rng);
    case ForgeryClass::kBloomCounterTamper:
      return forge_bloom_tamper(honest(query, SchemeKind::kBloom), rng);
    case ForgeryClass::kForgedCheckElement:
      return forge_check_element(honest(query, SchemeKind::kIntervalAccumulator), rng);
    case ForgeryClass::kKnownKeywordGap:
      return forge_known_gap(query);
    case ForgeryClass::kStructuredMutation:
      return forge_mutation(honest(query, scheme), seed);
    case ForgeryClass::kEpochMixing:
      return forge_epoch_mixing(honest(query, SchemeKind::kHybrid));
    case ForgeryClass::kOrDroppedBranch:
      return forge_or_drop(honest(query, scheme), rng);
    case ForgeryClass::kNotFalseComplement:
      return forge_not_false(honest(query, scheme), rng);
    case ForgeryClass::kTopkOmittedWinner:
      return forge_topk_omitted(honest(query, scheme), rng);
    case ForgeryClass::kTopkInflatedTf:
      return forge_topk_inflated(honest(query, scheme), rng);
    case ForgeryClass::kEpochChainSplice:
      return forge_epoch_chain_splice(query, scheme, rng);
  }
  throw UsageError("unknown forgery class");
}

ForgedResponse MaliciousCloud::forge_drop(const SearchResponse& base, SchemeKind scheme,
                                          DeterministicRng& rng) {
  ForgedResponse out;
  if (const auto* single = std::get_if<SingleKeywordResponse>(&base.body)) {
    if (single->postings.empty()) return out;
    SearchResponse resp = base;
    auto& body = std::get<SingleKeywordResponse>(resp.body);
    std::size_t victim = rng.below(body.postings.size());
    out.trace.push_back({"drop_posting", body.postings[victim].doc_id, 0});
    body.postings.erase(body.postings.begin() + static_cast<std::ptrdiff_t>(victim));
    out.outcome = ForgeOutcome::kForged;
    out.response = sign(std::move(resp));
    return out;
  }
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr || multi->result.docs.empty()) return out;

  SearchResult result = multi->result;
  std::size_t victim = rng.below(result.docs.size());
  std::uint64_t dropped = result.docs[victim];
  out.trace.push_back({"drop_result_doc", dropped, 0});
  result.docs.erase(result.docs.begin() + static_cast<std::ptrdiff_t>(victim));
  for (auto& postings : result.postings) {
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [&](const Posting& p) { return p.doc_id == dropped; }),
                   postings.end());
  }

  auto entries = entries_for(result);
  const bool interval_form = uses_interval_witnesses(scheme);
  QueryProof proof;
  proof.scheme = scheme;
  for (const auto* e : entries) proof.terms.push_back(e->attestation);
  // The truncated result is a genuine subset, so correctness evidence is
  // fully honest — the lie must survive or die on integrity.
  proof.correctness = provable_correctness(*prover_, *snap_, result, interval_form);

  if (scheme == SchemeKind::kBloom) {
    // The dropped doc belongs to every keyword's set but not to the claimed
    // result, so honest check-element extraction puts it in every check set.
    proof.integrity =
        ProverAccess::bloom_integrity(*prover_, result, entries, /*interval_form=*/false);
  } else {
    AccumulatorIntegrity integrity;
    std::size_t base_kw = pick_base(entries);
    integrity.base_keyword = static_cast<std::uint32_t>(base_kw);
    U64Set base_docs = InvertedIndex::doc_set(entries[base_kw]->postings);
    integrity.check_docs = set_difference(base_docs, result.docs);
    integrity.check_membership = ProverAccess::doc_membership(
        *prover_, *entries[base_kw], integrity.check_docs, interval_form);
    // Assign check docs to keywords genuinely missing them.  The dropped doc
    // is in every keyword's set, so no group can cover it — the forger must
    // leave it uncovered and hope the verifier doesn't do the accounting.
    std::vector<U64Set> grouped(entries.size());
    for (std::uint64_t doc : integrity.check_docs) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i == base_kw) continue;
        U64Set docs = InvertedIndex::doc_set(entries[i]->postings);
        if (!std::binary_search(docs.begin(), docs.end(), doc)) {
          grouped[i].push_back(doc);
          break;
        }
      }
    }
    out.trace.push_back({"leave_uncovered", dropped, 0});
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (grouped[i].empty()) continue;
      NonmembershipGroup g;
      g.keyword = static_cast<std::uint32_t>(i);
      g.docs = std::move(grouped[i]);
      g.evidence =
          ProverAccess::doc_nonmembership(*prover_, *entries[i], g.docs, interval_form);
      integrity.groups.push_back(std::move(g));
    }
    proof.integrity = std::move(integrity);
  }

  SearchResponse resp = base;
  resp.body = MultiKeywordResponse{std::move(result), std::move(proof)};
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_add(const SearchResponse& base, SchemeKind scheme,
                                         DeterministicRng& rng) {
  ForgedResponse out;
  if (std::holds_alternative<SingleKeywordResponse>(base.body)) {
    SearchResponse resp = base;
    auto& body = std::get<SingleKeywordResponse>(resp.body);
    std::uint32_t next = body.postings.empty() ? 1 : body.postings.back().doc_id + 1;
    out.trace.push_back({"append_posting", next, 0});
    body.postings.push_back(Posting{next, 1 + static_cast<std::uint32_t>(rng.below(5))});
    out.outcome = ForgeOutcome::kForged;
    out.response = sign(std::move(resp));
    return out;
  }
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;

  SearchResult result = multi->result;
  auto entries = entries_for(result);
  // The extra doc comes from some keyword's set minus the result — a real
  // document that matches at least one (but provably not every) keyword.
  U64Set pool;
  for (const auto* e : entries) {
    pool = set_union(pool, set_difference(InvertedIndex::doc_set(e->postings), result.docs));
  }
  if (pool.empty()) return out;
  std::uint64_t extra = pool[rng.below(pool.size())];
  out.trace.push_back({"add_extra_doc", extra, 0});
  insert_sorted(result.docs, extra);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Posting p{static_cast<std::uint32_t>(extra), 1 + static_cast<std::uint32_t>(rng.below(5))};
    for (const Posting& real : entries[i]->postings) {
      if (real.doc_id == p.doc_id) {
        p = real;  // use the true tuple where one exists
        break;
      }
    }
    auto& postings = result.postings[i];
    postings.insert(std::lower_bound(postings.begin(), postings.end(), p,
                                     [](const Posting& a, const Posting& b) {
                                       return a.doc_id < b.doc_id;
                                     }),
                    p);
  }

  const bool interval_form = uses_interval_witnesses(scheme);
  QueryProof proof;
  proof.scheme = scheme;
  for (const auto* e : entries) proof.terms.push_back(e->attestation);
  // At least one keyword's claimed postings now contain a tuple its index
  // does not hold; the evidence can only argue for the provable subset.
  proof.correctness = provable_correctness(*prover_, *snap_, result, interval_form);

  if (scheme == SchemeKind::kBloom) {
    proof.integrity =
        ProverAccess::bloom_integrity(*prover_, result, entries, /*interval_form=*/false);
  } else {
    AccumulatorIntegrity integrity;
    std::size_t base_kw = pick_base(entries);
    integrity.base_keyword = static_cast<std::uint32_t>(base_kw);
    U64Set base_docs = InvertedIndex::doc_set(entries[base_kw]->postings);
    integrity.check_docs = set_difference(base_docs, result.docs);
    integrity.check_membership = ProverAccess::doc_membership(
        *prover_, *entries[base_kw], integrity.check_docs, interval_form);
    std::vector<U64Set> grouped(entries.size());
    for (std::uint64_t doc : integrity.check_docs) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i == base_kw) continue;
        U64Set docs = InvertedIndex::doc_set(entries[i]->postings);
        if (!std::binary_search(docs.begin(), docs.end(), doc)) {
          grouped[i].push_back(doc);
          break;
        }
      }
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (grouped[i].empty()) continue;
      NonmembershipGroup g;
      g.keyword = static_cast<std::uint32_t>(i);
      g.docs = std::move(grouped[i]);
      g.evidence =
          ProverAccess::doc_nonmembership(*prover_, *entries[i], g.docs, interval_form);
      integrity.groups.push_back(std::move(g));
    }
    proof.integrity = std::move(integrity);
  }

  SearchResponse resp = base;
  resp.body = MultiKeywordResponse{std::move(result), std::move(proof)};
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_witness_substitution(const SearchResponse& base,
                                                          DeterministicRng& rng) {
  ForgedResponse out;
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;

  SearchResponse resp = base;
  auto& body = std::get<MultiKeywordResponse>(resp.body);
  const std::size_t q = body.result.keywords.size();
  std::size_t start = rng.below(q);
  for (std::size_t off = 0; off < q; ++off) {
    std::size_t i = (start + off) % q;
    MembershipEvidence& ev = body.proof.correctness.keywords[i];
    if (!ev.interval_form || ev.interval.parts.empty()) continue;
    const IntervalIndex& idx = entry(body.result.keywords[i])->tuple_intervals;
    if (idx.interval_count() < 2) continue;
    // Graft a *genuinely authenticated* descriptor + middle witness from a
    // neighbouring interval of the same term: the signed root accepts the
    // pair, but the claimed values live in a different interval.
    IntervalMembershipPart& part = ev.interval.parts[rng.below(ev.interval.parts.size())];
    std::size_t k = idx.find_interval(part.desc.lo);
    std::size_t other = (k + 1) % idx.interval_count();
    part.desc = idx.descriptor(other);
    part.mid_witness = IntervalAccess::mid_witness(idx, other);
    out.trace.push_back({"substitute_interval", i, other});
    out.outcome = ForgeOutcome::kForged;
    out.response = sign(std::move(resp));
    return out;
  }
  return out;
}

ForgedResponse MaliciousCloud::forge_stale(const SignedQuery& query, SchemeKind scheme) {
  ForgedResponse out;
  if (stale_snap_ == nullptr || stale_prover_ == nullptr) return out;
  // Boolean / top-k queries answer with a boolean body; this class forges
  // legacy multi-keyword responses only.
  if (query.query.expr.has_value() || query.query.top_k != 0) return out;
  SearchResult result = CloudAccess::engine(cloud_)->execute_only(query.query);
  if (result.keywords.size() < 2 || result.postings.size() != result.keywords.size()) {
    return out;
  }
  std::vector<const IndexEntry*> stale_entries;
  for (const auto& kw : result.keywords) {
    const auto* e = stale_snap_->find(kw);
    if (e == nullptr) return out;  // term born after the snapshot
    stale_entries.push_back(e);
  }
  const bool interval_form = uses_interval_witnesses(scheme);
  std::size_t base_kw = pick_base(stale_entries);
  U64Set stale_base_docs = InvertedIndex::doc_set(stale_entries[base_kw]->postings);
  // The lazy-cloud lie is only a lie when the fresh result strayed beyond
  // the snapshot; otherwise stale and fresh coincide and there is nothing
  // to catch.
  if (is_subset(result.docs, stale_base_docs)) return out;

  QueryProof proof;
  proof.scheme = scheme;
  for (const auto* e : stale_entries) proof.terms.push_back(e->attestation);
  out.trace.push_back({"stale_attestations", result.keywords.size(), 0});
  proof.correctness =
      provable_correctness(*stale_prover_, *stale_snap_, result, interval_form);

  AccumulatorIntegrity integrity;
  integrity.base_keyword = static_cast<std::uint32_t>(base_kw);
  integrity.check_docs = set_difference(stale_base_docs, result.docs);
  integrity.check_membership = ProverAccess::doc_membership(
      *stale_prover_, *stale_entries[base_kw], integrity.check_docs, interval_form);
  std::vector<U64Set> grouped(stale_entries.size());
  for (std::uint64_t doc : integrity.check_docs) {
    for (std::size_t i = 0; i < stale_entries.size(); ++i) {
      if (i == base_kw) continue;
      U64Set docs = InvertedIndex::doc_set(stale_entries[i]->postings);
      if (!std::binary_search(docs.begin(), docs.end(), doc)) {
        grouped[i].push_back(doc);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < stale_entries.size(); ++i) {
    if (grouped[i].empty()) continue;
    NonmembershipGroup g;
    g.keyword = static_cast<std::uint32_t>(i);
    g.docs = std::move(grouped[i]);
    g.evidence = ProverAccess::doc_nonmembership(*stale_prover_, *stale_entries[i], g.docs,
                                                 interval_form);
    integrity.groups.push_back(std::move(g));
  }
  proof.integrity = std::move(integrity);

  SearchResponse resp;
  resp.query_id = query.query.id;
  resp.raw_keywords = query.query.keywords;
  // Stamp the *live* epoch: an epoch-honest header keeps this class about
  // stale evidence, not about the epoch field (that is kEpochMixing).
  resp.epoch = snap_->epoch();
  resp.body = MultiKeywordResponse{std::move(result), std::move(proof)};
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_epoch_chain_splice(const SignedQuery& query,
                                                        SchemeKind scheme,
                                                        DeterministicRng& rng) {
  // The log-structured-store cheat: a cloud serving a delta chain answers
  // one keyword from a stale chain layer — live result set, live epoch
  // stamp, live evidence for every other keyword, but the victim keyword's
  // attestation and correctness evidence taken from the pre-delta entry
  // (the operator who "saves" re-proving cost by skipping a delta for one
  // term).  The stale accumulator cannot argue for postings only the delta
  // added, so the correctness evidence covers a strict subset of the claim.
  ForgedResponse out;
  if (stale_snap_ == nullptr || stale_prover_ == nullptr) return out;
  if (query.query.expr.has_value() || query.query.top_k != 0) return out;
  const SearchResponse& base = honest(query, scheme);
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;
  const SearchResult& result = multi->result;
  if (result.keywords.size() < 2 || result.postings.size() != result.keywords.size() ||
      multi->proof.terms.size() != result.keywords.size() ||
      multi->proof.correctness.keywords.size() != result.keywords.size()) {
    return out;
  }

  // A keyword is spliceable when the stale layer knows it but cannot cover
  // the live claim — otherwise stale and live coincide and there is no lie.
  const bool interval_form = uses_interval_witnesses(scheme);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < result.keywords.size(); ++i) {
    const auto* stale_e = stale_snap_->find(result.keywords[i]);
    if (stale_e == nullptr) continue;  // term born after the stale layer
    U64Set claimed = InvertedIndex::tuple_set(result.postings[i]);
    std::sort(claimed.begin(), claimed.end());
    U64Set stale_tuples = InvertedIndex::tuple_set(stale_e->postings);
    std::sort(stale_tuples.begin(), stale_tuples.end());
    if (!is_subset(claimed, stale_tuples)) candidates.push_back(i);
  }
  if (candidates.empty()) return out;
  std::size_t victim = candidates[rng.below(candidates.size())];
  const auto* stale_e = stale_snap_->find(result.keywords[victim]);

  SearchResponse resp = base;  // live, honest — except for the splice below
  auto& body = std::get<MultiKeywordResponse>(resp.body);
  body.proof.terms[victim] = stale_e->attestation;
  U64Set claimed = InvertedIndex::tuple_set(result.postings[victim]);
  std::sort(claimed.begin(), claimed.end());
  U64Set stale_tuples = InvertedIndex::tuple_set(stale_e->postings);
  std::sort(stale_tuples.begin(), stale_tuples.end());
  U64Set provable = set_intersection(claimed, stale_tuples);
  body.proof.correctness.keywords[victim] =
      ProverAccess::tuple_membership(*stale_prover_, *stale_e, provable, interval_form);
  out.trace.push_back({"splice_keyword", victim, claimed.size() - provable.size()});

  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_encoding_swap(const SearchResponse& base,
                                                   DeterministicRng& rng) {
  ForgedResponse out;
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;

  SearchResponse resp = base;
  auto& body = std::get<MultiKeywordResponse>(resp.body);
  // Relabel the declared scheme against the hybrid's actual choice.  Every
  // candidate below makes either the integrity encoding or the evidence
  // form contradict the label; relabels that stay semantically consistent
  // (hybrid + accumulator integrity -> interval scheme) are excluded.
  std::vector<SchemeKind> candidates;
  if (std::holds_alternative<AccumulatorIntegrity>(body.proof.integrity)) {
    candidates = {SchemeKind::kAccumulator, SchemeKind::kBloom};
  } else {
    candidates = {SchemeKind::kAccumulator, SchemeKind::kBloom,
                  SchemeKind::kIntervalAccumulator};
  }
  SchemeKind relabel = candidates[rng.below(candidates.size())];
  out.trace.push_back({"relabel_scheme", static_cast<std::uint64_t>(body.proof.scheme),
                       static_cast<std::uint64_t>(relabel)});
  body.proof.scheme = relabel;
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_bloom_tamper(const SearchResponse& base,
                                                  DeterministicRng& rng) {
  ForgedResponse out;
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;
  SearchResponse resp = base;
  auto& body = std::get<MultiKeywordResponse>(resp.body);
  auto* integrity = std::get_if<BloomIntegrity>(&body.proof.integrity);
  if (integrity == nullptr || integrity->parts.empty()) return out;

  BloomKeywordPart& part = integrity->parts[rng.below(integrity->parts.size())];
  CountingBloom filter = decompress_bloom(part.bloom.stmt.doc_bloom);
  auto& counters = BloomTamper::counters(filter);
  const bool decrement = rng.below(2) == 0;
  std::size_t slot = rng.below(counters.size());
  if (decrement) {
    // Walk to a non-zero counter: hiding a membership trace.
    for (std::size_t off = 0; off < counters.size(); ++off) {
      std::size_t j = (slot + off) % counters.size();
      if (counters[j] > 0) {
        --counters[j];
        out.trace.push_back({"decrement_counter", j, counters[j]});
        break;
      }
    }
  } else {
    ++counters[slot];
    out.trace.push_back({"inflate_counter", slot, counters[slot]});
  }
  part.bloom.stmt.doc_bloom = compress_bloom(filter);
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_check_element(const SearchResponse& base,
                                                   DeterministicRng& rng) {
  ForgedResponse out;
  const auto* multi = std::get_if<MultiKeywordResponse>(&base.body);
  if (multi == nullptr) return out;
  SearchResponse resp = base;
  auto& body = std::get<MultiKeywordResponse>(resp.body);
  auto* integrity = std::get_if<AccumulatorIntegrity>(&body.proof.integrity);
  if (integrity == nullptr) return out;

  const bool fabricate = integrity->check_docs.empty() || rng.below(2) == 0;
  if (fabricate) {
    // A check element no keyword set contains: doc ids are dense and small,
    // so anything in the high range is guaranteed foreign.
    std::uint64_t fake = (1ULL << 31) + rng.below(1ULL << 20);
    insert_sorted(integrity->check_docs, fake);
    out.trace.push_back({"fabricate_check_doc", fake, 0});
  } else {
    std::size_t victim = rng.below(integrity->check_docs.size());
    std::uint64_t doc = integrity->check_docs[victim];
    integrity->check_docs.erase(integrity->check_docs.begin() +
                                static_cast<std::ptrdiff_t>(victim));
    for (auto& g : integrity->groups) {
      g.docs.erase(std::remove(g.docs.begin(), g.docs.end(), doc), g.docs.end());
    }
    out.trace.push_back({"omit_check_doc", doc, 0});
  }
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_known_gap(const SignedQuery& query) {
  ForgedResponse out;
  std::string known;
  for (const auto& raw : query.query.keywords) {
    std::string norm = normalize_term(raw);
    if (!norm.empty() && snap_->find(norm) != nullptr) {
      known = norm;
      break;
    }
  }
  if (known.empty()) return out;  // nothing indexed to lie about
  // The keyword is in the dictionary, so prove_unknown refuses it.  But the
  // word `known + "\x01"` sorts strictly between the keyword and its
  // successor, so its (genuine!) gap proof discloses lo == keyword — and
  // claims the keyword itself is unknown only if the verifier forgets the
  // *strict* inequality.
  GapProof gap = snap_->dictionary().prove_unknown(known + "\x01");
  out.trace.push_back({"claim_known_unknown", known.size(), 0});

  SearchResponse resp;
  resp.query_id = query.query.id;
  resp.raw_keywords = query.query.keywords;
  resp.epoch = snap_->epoch();
  UnknownKeywordResponse body;
  body.keyword = known;
  body.gap = std::move(gap);
  body.dict = snap_->dict_attestation();
  resp.body = std::move(body);
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_mutation(const SearchResponse& base,
                                              std::uint64_t seed) {
  ForgedResponse out;
  SearchResponse resp = base;
  ProofMutator mutator(seed, ctx_.n());
  if (!mutator.mutate(resp)) return out;
  out.trace = mutator.trace();
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_epoch_mixing(const SearchResponse& base) {
  ForgedResponse out;
  // Rewind the signed response epoch to just below the newest attached
  // owner attestation: the response then claims to come from a snapshot
  // that predates evidence it carries.  The proofs themselves stay fully
  // honest — only the epoch discipline can catch this one.
  std::uint64_t max_att = 0;
  if (const auto* multi = std::get_if<MultiKeywordResponse>(&base.body)) {
    for (const auto& att : multi->proof.terms) max_att = std::max(max_att, att.stmt.epoch);
    if (const auto* bloom = std::get_if<BloomIntegrity>(&multi->proof.integrity)) {
      for (const auto& part : bloom->parts) {
        max_att = std::max(max_att, part.bloom.stmt.epoch);
      }
    }
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&base.body)) {
    max_att = single->attestation.stmt.epoch;
  } else if (const auto* unknown = std::get_if<UnknownKeywordResponse>(&base.body)) {
    max_att = unknown->dict.stmt.epoch;
  } else if (const auto* boolean = std::get_if<BooleanQueryResponse>(&base.body)) {
    for (const auto& att : boolean->proof.terms) {
      max_att = std::max(max_att, att.stmt.epoch);
    }
    if (!boolean->proof.unknowns.empty()) {
      max_att = std::max(max_att, boolean->proof.dict.stmt.epoch);
    }
  }
  if (max_att == 0) return out;  // epochs start at 1; nothing to rewind below
  SearchResponse resp = base;
  resp.epoch = max_att - 1;
  out.trace.push_back({"rewind_epoch", base.epoch, resp.epoch});
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

void MaliciousCloud::rebuild_boolean_facts(BooleanQueryResponse& body) const {
  BooleanProof& proof = body.proof;
  const bool interval_form = uses_interval_witnesses(proof.scheme);
  U64Set universe = set_union(body.docs, body.check_docs);
  proof.facts.clear();
  proof.facts.resize(body.terms.size());
  proof.correctness.keywords.clear();
  for (std::size_t i = 0; i < body.terms.size(); ++i) {
    const IndexEntry* e = entry(body.terms[i]);
    U64Set docs = InvertedIndex::doc_set(e->postings);
    BooleanTermFacts& f = proof.facts[i];
    for (std::uint64_t d : universe) {
      if (std::binary_search(docs.begin(), docs.end(), d)) {
        f.members.push_back(d);
      } else {
        f.nonmembers.push_back(d);
      }
    }
    f.membership = ProverAccess::doc_membership(*prover_, *e, f.members, interval_form);
    if (!f.nonmembers.empty()) {
      f.nonmembership =
          ProverAccess::doc_nonmembership(*prover_, *e, f.nonmembers, interval_form);
    }
    // Tuple correctness over the provable subset of the claimed postings —
    // an inflated tf leaves its tuple outside the index and unarguable.
    U64Set claimed = InvertedIndex::tuple_set(body.postings[i]);
    std::sort(claimed.begin(), claimed.end());
    U64Set indexed = InvertedIndex::tuple_set(e->postings);
    std::sort(indexed.begin(), indexed.end());
    U64Set provable = set_intersection(claimed, indexed);
    proof.correctness.keywords.push_back(
        ProverAccess::tuple_membership(*prover_, *e, provable, interval_form));
  }
}

ForgedResponse MaliciousCloud::forge_or_drop(const SearchResponse& base,
                                             DeterministicRng& rng) {
  ForgedResponse out;
  const auto* boolean = std::get_if<BooleanQueryResponse>(&base.body);
  if (boolean == nullptr || boolean->docs.empty() ||
      !contains_kind(boolean->expr, BoolNode::Kind::kOr)) {
    return out;
  }
  SearchResponse resp = base;
  auto& body = std::get<BooleanQueryResponse>(resp.body);
  // Demote a genuine satisfier into the check set and regenerate everything
  // else honestly: postings filtered, facts true, ranking recomputed.  The
  // lie survives every structural check and must die on the three-valued
  // re-evaluation finding the doc provably TRUE.
  std::size_t victim = rng.below(body.docs.size());
  std::uint64_t dropped = body.docs[victim];
  out.trace.push_back({"drop_or_satisfier", dropped, 0});
  body.docs.erase(body.docs.begin() + static_cast<std::ptrdiff_t>(victim));
  insert_sorted(body.check_docs, dropped);
  for (std::size_t i = 0; i < body.terms.size(); ++i) {
    body.postings[i] = InvertedIndex::filter_by_docs(entry(body.terms[i])->postings,
                                                     body.docs);
  }
  if (body.top_k != 0) body.ranked = topk_by_tf(body.docs, body.postings, body.top_k);
  rebuild_boolean_facts(body);
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_not_false(const SearchResponse& base,
                                               DeterministicRng& rng) {
  ForgedResponse out;
  const auto* boolean = std::get_if<BooleanQueryResponse>(&base.body);
  if (boolean == nullptr || boolean->check_docs.empty() ||
      !contains_kind(boolean->expr, BoolNode::Kind::kNot)) {
    return out;
  }
  SearchResponse resp = base;
  auto& body = std::get<BooleanQueryResponse>(resp.body);
  // Promote a genuine non-satisfier (a doc the NOT branch excludes) into the
  // result, with its true postings attached — the complement lie.  All facts
  // stay true; the re-evaluation must find the doc provably FALSE.
  std::size_t victim = rng.below(body.check_docs.size());
  std::uint64_t promoted = body.check_docs[victim];
  out.trace.push_back({"promote_not_excluded", promoted, 0});
  body.check_docs.erase(body.check_docs.begin() + static_cast<std::ptrdiff_t>(victim));
  insert_sorted(body.docs, promoted);
  for (std::size_t i = 0; i < body.terms.size(); ++i) {
    body.postings[i] = InvertedIndex::filter_by_docs(entry(body.terms[i])->postings,
                                                     body.docs);
  }
  if (body.top_k != 0) body.ranked = topk_by_tf(body.docs, body.postings, body.top_k);
  rebuild_boolean_facts(body);
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_topk_omitted(const SearchResponse& base,
                                                  DeterministicRng& rng) {
  ForgedResponse out;
  const auto* boolean = std::get_if<BooleanQueryResponse>(&base.body);
  if (boolean == nullptr || boolean->top_k == 0 || boolean->ranked.empty()) return out;
  SearchResponse resp = base;
  auto& body = std::get<BooleanQueryResponse>(resp.body);
  // Everything else stays fully honest — S, C, facts, postings — only the
  // ranking claim lies.  Preferred lie: hide the winner in favour of a
  // result doc outside the claimed top-k (the paid-placement cheat).
  U64Set claimed;
  for (const TopKEntry& e : body.ranked) claimed.push_back(e.doc_id);
  std::sort(claimed.begin(), claimed.end());
  U64Set unclaimed = set_difference(body.docs, claimed);
  if (!unclaimed.empty()) {
    std::uint64_t sub = unclaimed[rng.below(unclaimed.size())];
    std::uint64_t score = 0;
    for (const PostingList& list : body.postings) {
      for (const Posting& p : list) {
        if (p.doc_id == sub) score += p.tf;
      }
    }
    out.trace.push_back({"replace_winner", body.ranked[0].doc_id, sub});
    body.ranked[0] = TopKEntry{static_cast<std::uint32_t>(sub), score};
  } else if (body.ranked.size() >= 2) {
    out.trace.push_back({"swap_winners", body.ranked[0].doc_id, body.ranked[1].doc_id});
    std::swap(body.ranked[0], body.ranked[1]);
  } else {
    out.trace.push_back({"inflate_winner_score", body.ranked[0].doc_id, 0});
    body.ranked[0].score += 7;
  }
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

ForgedResponse MaliciousCloud::forge_topk_inflated(const SearchResponse& base,
                                                   DeterministicRng& rng) {
  ForgedResponse out;
  const auto* boolean = std::get_if<BooleanQueryResponse>(&base.body);
  if (boolean == nullptr) return out;
  SearchResponse resp = base;
  auto& body = std::get<BooleanQueryResponse>(resp.body);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < body.postings.size(); ++i) {
    if (!body.postings[i].empty()) candidates.push_back(i);
  }
  if (candidates.empty()) return out;
  // Inflate one disclosed tf and recompute the ranking from the tampered
  // postings, so the claim is perfectly self-consistent — the forged tuple
  // itself is the only lie, and only tuple-membership correctness (the
  // owner's signed (doc,tf) pairs) can catch it.
  std::size_t term = candidates[rng.below(candidates.size())];
  std::size_t slot = rng.below(body.postings[term].size());
  body.postings[term][slot].tf += 1 + static_cast<std::uint32_t>(rng.below(9));
  out.trace.push_back({"inflate_posting_tf", term, slot});
  if (body.top_k != 0) body.ranked = topk_by_tf(body.docs, body.postings, body.top_k);
  rebuild_boolean_facts(body);
  out.outcome = ForgeOutcome::kForged;
  out.response = sign(std::move(resp));
  return out;
}

}  // namespace vc::advtest
