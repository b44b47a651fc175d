#include "proof/verifier.hpp"

#include <algorithm>

#include "bloom/compressed_bloom.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw VerifyError(what);
}

}  // namespace

ResultVerifier::ResultVerifier(AccumulatorContext ctx, VerifyKey owner_key,
                               VerifyKey cloud_key, VerifiableIndexConfig config)
    : ctx_(std::move(ctx)),
      owner_key_(std::move(owner_key)),
      cloud_key_(std::move(cloud_key)),
      config_(config),
      tuple_primes_(std::make_unique<PrimeCache>(config.tuple_prime_config())),
      doc_primes_(std::make_unique<PrimeCache>(config.doc_prime_config())),
      batch_key_(random_batch_key()) {}

void ResultVerifier::reset_prime_caches() const {
  tuple_primes_->clear();
  doc_primes_->clear();
}

void ResultVerifier::verify(const SearchResponse& response) const {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("verify");
  obs::Span span(stage, "verify");
  // Check 1 (§III-E): results and proofs signed by the cloud.
  const Bytes payload = response.payload_bytes();
  require(cloud_key_.verify(payload, response.cloud_sig), "cloud signature invalid");
  // Epoch pin: an owner who knows the current epoch rejects responses
  // served from any other snapshot (rollback/stale serving).
  if (pinned_epoch_.has_value()) {
    require(response.epoch == *pinned_epoch_, "response epoch does not match pinned epoch");
  }
  VerifyBatch batch(ctx_, batch_key_, Sha256::hash(payload));
  if (const auto* multi = std::get_if<MultiKeywordResponse>(&response.body)) {
    verify_multi(*multi, response.epoch, batch);
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&response.body)) {
    verify_single(*single, response.epoch);
  } else if (const auto* unknown = std::get_if<UnknownKeywordResponse>(&response.body)) {
    verify_unknown(*unknown, response.epoch, batch);
  } else {
    verify_boolean(std::get<BooleanQueryResponse>(response.body), response.epoch, batch);
  }
  batch.check();
}

void ResultVerifier::verify_multi(const MultiKeywordResponse& multi,
                                  std::uint64_t response_epoch, VerifyBatch& batch) const {
  const SearchResult& result = multi.result;
  const QueryProof& proof = multi.proof;
  const std::size_t q = result.keywords.size();
  require(q >= 2, "multi-keyword response needs at least two keywords");
  require(result.postings.size() == q, "postings/keyword count mismatch");
  require(proof.terms.size() == q, "attestation/keyword count mismatch");
  require(proof.correctness.keywords.size() == q, "correctness/keyword count mismatch");
  require(is_sorted_unique(result.docs), "result docs not a sorted set");

  // Scheme/encoding consistency: the declared scheme pins the integrity
  // encoding and the evidence form.  Without these pins a forger could
  // relabel a proof into an encoding whose checks it can satisfy (e.g.
  // attach Bloom integrity while claiming the accumulator scheme).
  const bool interval_scheme = uses_interval_witnesses(proof.scheme);
  if (proof.scheme == SchemeKind::kAccumulator ||
      proof.scheme == SchemeKind::kIntervalAccumulator) {
    require(std::holds_alternative<AccumulatorIntegrity>(proof.integrity),
            "integrity encoding does not match declared scheme");
  } else if (proof.scheme == SchemeKind::kBloom) {
    require(std::holds_alternative<BloomIntegrity>(proof.integrity),
            "integrity encoding does not match declared scheme");
  }
  for (const MembershipEvidence& ev : proof.correctness.keywords) {
    require(ev.interval_form == interval_scheme,
            "correctness evidence form does not match declared scheme");
  }

  // Owner attestations bind each keyword to its accumulators.  No
  // attestation may be newer than the snapshot epoch the cloud signed —
  // that would be evidence from a later index version mixed into this
  // response (cross-epoch proof mixing).
  for (std::size_t i = 0; i < q; ++i) {
    require(proof.terms[i].verify(owner_key_), "term attestation signature invalid");
    require(proof.terms[i].stmt.term == result.keywords[i],
            "attestation term does not match keyword");
    require(proof.terms[i].stmt.epoch <= response_epoch,
            "attestation epoch newer than response epoch");
  }

  // Check 2: every keyword's tuples cover exactly the result docs.
  for (std::size_t i = 0; i < q; ++i) {
    U64Set docs = InvertedIndex::doc_set(result.postings[i]);
    require(is_sorted_unique(docs), "result postings not sorted");
    require(docs == result.docs, "keyword result covers different documents");
  }

  // Check 3: correctness — R_i ⊆ I_i via tuple membership evidence.
  for (std::size_t i = 0; i < q; ++i) {
    U64Set tuples = InvertedIndex::tuple_set(result.postings[i]);
    std::sort(tuples.begin(), tuples.end());
    const char* what = "correctness proof invalid";
    require(proof.correctness.keywords[i].verify(proof.terms[i].stmt.tuple_acc,
                                                 proof.terms[i].stmt.tuple_root, tuples,
                                                 *tuple_primes_, batch, what),
            what);
  }

  // Check 4: integrity.
  if (const auto* acc = std::get_if<AccumulatorIntegrity>(&proof.integrity)) {
    verify_accumulator_integrity(multi, *acc, batch);
  } else {
    verify_bloom_integrity(multi, std::get<BloomIntegrity>(proof.integrity), response_epoch,
                           batch);
  }
}

// Boolean / top-k verification.  The soundness argument, in order of the
// checks below:
//   (a) guard coverage (guards_cover) means every *true* satisfier of the
//       expression lies in some guard term's document set X_g;
//   (b) the posting-count pin makes each guard's member facts exactly X_g
//       (members[g] ⊆ X_g by witness, |members[g]| = |X_g| by the owner's
//       signed count), so the candidate universe ∪_g X_g is fully disclosed;
//   (c) C is pinned to exactly (∪_g X_g) \ S, so every candidate is decided;
//   (d) every fact is cryptographically true (membership / nonmembership
//       witnesses against owner-attested accumulators), and three-valued
//       evaluation is sound: a definite TRUE/FALSE verdict over true facts
//       can never be flipped by resolving an unknown.  TRUE for all of S and
//       FALSE for all of C therefore makes S *exactly* the satisfier set —
//       no extra doc survives (e), no dropped doc hides (it would sit in C
//       with an unprovable FALSE).
//   (f) completeness facts decide every term for every doc in S, pinning the
//       disclosed postings to X_t ∩ S exactly; with tuple-membership
//       correctness the tf values are the owner's, so the tf-sum scores are
//       exact and the top-k claim is checked by recomputation.
void ResultVerifier::verify_boolean(const BooleanQueryResponse& boolean,
                                    std::uint64_t response_epoch, VerifyBatch& batch) const {
  const BooleanProof& proof = boolean.proof;
  const std::size_t q = boolean.terms.size();
  require(boolean.postings.size() == q, "postings/term count mismatch");
  require(proof.terms.size() == q, "attestation/term count mismatch");
  require(proof.facts.size() == q, "facts/term count mismatch");
  require(proof.correctness.keywords.size() == q, "correctness/term count mismatch");
  require(std::is_sorted(boolean.terms.begin(), boolean.terms.end()) &&
              std::adjacent_find(boolean.terms.begin(), boolean.terms.end()) ==
                  boolean.terms.end(),
          "terms not sorted distinct");
  require(is_sorted_unique(boolean.docs), "result docs not a sorted set");
  require(is_sorted_unique(boolean.check_docs), "check docs not a sorted set");
  require(sets_disjoint(boolean.docs, boolean.check_docs),
          "check docs overlap the result");

  // Unknown (dictionary-absent) leaves: sorted, distinct, disjoint from the
  // known terms.
  std::vector<std::string> unknowns;
  unknowns.reserve(proof.unknowns.size());
  for (const UnknownTermProof& u : proof.unknowns) unknowns.push_back(u.term);
  require(std::is_sorted(unknowns.begin(), unknowns.end()) &&
              std::adjacent_find(unknowns.begin(), unknowns.end()) == unknowns.end(),
          "unknown terms not sorted distinct");
  for (const auto& u : unknowns) {
    require(!std::binary_search(boolean.terms.begin(), boolean.terms.end(), u),
            "unknown term also claimed as known");
  }

  // The expression's leaves must be exactly the known terms plus the
  // unknowns — no term proven about that the query never mentioned, and no
  // leaf left without facts or a gap proof.
  {
    std::vector<std::string> leaves = query_terms(boolean.expr);
    std::vector<std::string> expected;
    expected.reserve(q + unknowns.size());
    std::merge(boolean.terms.begin(), boolean.terms.end(), unknowns.begin(), unknowns.end(),
               std::back_inserter(expected));
    require(leaves == expected, "expression leaves do not match proven terms");
  }

  // Scheme pins the evidence form, as in verify_multi.
  const bool interval_scheme = uses_interval_witnesses(proof.scheme);
  for (std::size_t i = 0; i < q; ++i) {
    require(proof.correctness.keywords[i].interval_form == interval_scheme,
            "correctness evidence form does not match declared scheme");
    require(proof.facts[i].membership.interval_form == interval_scheme,
            "fact evidence form does not match declared scheme");
    if (!proof.facts[i].nonmembers.empty()) {
      require(proof.facts[i].nonmembership.interval_form == interval_scheme,
              "fact evidence form does not match declared scheme");
    }
  }

  // Owner attestations bind each term to its accumulators and counts.
  for (std::size_t i = 0; i < q; ++i) {
    require(proof.terms[i].verify(owner_key_), "term attestation signature invalid");
    require(proof.terms[i].stmt.term == boolean.terms[i],
            "attestation term does not match keyword");
    require(proof.terms[i].stmt.epoch <= response_epoch,
            "attestation epoch newer than response epoch");
  }

  // (a) Guard coverage.
  require(std::is_sorted(proof.guards.begin(), proof.guards.end()) &&
              std::adjacent_find(proof.guards.begin(), proof.guards.end()) ==
                  proof.guards.end(),
          "guards not sorted distinct");
  std::vector<std::string> guard_names;
  guard_names.reserve(proof.guards.size());
  for (std::uint32_t g : proof.guards) {
    require(g < q, "guard index out of range");
    guard_names.push_back(boolean.terms[g]);
  }
  require(guards_cover(boolean.expr, guard_names, unknowns),
          "guards do not cover the expression");

  // Facts are well-formed: sorted sets over S ∪ C, never both ways at once.
  U64Set universe = set_union(boolean.docs, boolean.check_docs);
  for (std::size_t i = 0; i < q; ++i) {
    const BooleanTermFacts& f = proof.facts[i];
    require(is_sorted_unique(f.members), "member facts not a sorted set");
    require(is_sorted_unique(f.nonmembers), "nonmember facts not a sorted set");
    require(sets_disjoint(f.members, f.nonmembers),
            "a document claimed both in and out of a term");
    require(is_subset(f.members, universe) && is_subset(f.nonmembers, universe),
            "facts about documents outside the response");
  }

  // (b) Each guard's member facts are its entire posting list.
  for (std::uint32_t g : proof.guards) {
    require(proof.facts[g].members.size() == proof.terms[g].stmt.posting_count,
            "guard member facts do not exhaust the posting count");
  }

  // (c) The check set is exactly the undisclosed part of the candidate
  // universe: C = (∪_g members[g]) \ S.
  {
    U64Set candidates;
    for (std::uint32_t g : proof.guards) {
      candidates = set_union(candidates, proof.facts[g].members);
    }
    require(set_difference(candidates, boolean.docs) == boolean.check_docs,
            "check docs are not exactly the non-matching candidates");
  }

  // (f, part 1) Completeness over S: every term decided for every result
  // doc, and the disclosed postings are exactly the member docs within S.
  for (std::size_t i = 0; i < q; ++i) {
    const BooleanTermFacts& f = proof.facts[i];
    for (std::uint64_t d : boolean.docs) {
      require(std::binary_search(f.members.begin(), f.members.end(), d) ||
                  std::binary_search(f.nonmembers.begin(), f.nonmembers.end(), d),
              "result doc undecided for a term");
    }
    U64Set posting_docs = InvertedIndex::doc_set(boolean.postings[i]);
    require(is_sorted_unique(posting_docs), "result postings not sorted");
    require(posting_docs == set_intersection(f.members, boolean.docs),
            "postings do not match the member facts");
  }

  // (d) The facts are cryptographically true.
  for (std::size_t i = 0; i < q; ++i) {
    const TermStatement& stmt = proof.terms[i].stmt;
    const BooleanTermFacts& f = proof.facts[i];
    const char* member = "member fact proof invalid";
    require(f.membership.verify(stmt.doc_acc, stmt.doc_root, f.members, *doc_primes_, batch,
                                member),
            member);
    if (!f.nonmembers.empty()) {
      const char* nonmember = "nonmember fact proof invalid";
      require(f.nonmembership.verify(stmt.doc_acc, stmt.doc_root, f.nonmembers, *doc_primes_,
                                     batch, nonmember),
              nonmember);
    }
    U64Set tuples = InvertedIndex::tuple_set(boolean.postings[i]);
    std::sort(tuples.begin(), tuples.end());
    const char* correctness = "correctness proof invalid";
    require(proof.correctness.keywords[i].verify(stmt.tuple_acc, stmt.tuple_root, tuples,
                                                 *tuple_primes_, batch, correctness),
            correctness);
  }

  // Unknown leaves: gap proofs against the owner's dictionary attestation.
  if (!proof.unknowns.empty()) {
    require(proof.dict.verify(owner_key_), "dictionary attestation signature invalid");
    require(proof.dict.stmt.epoch <= response_epoch,
            "dictionary attestation epoch newer than response epoch");
    const char* what = "unknown-term gap proof invalid";
    for (const UnknownTermProof& u : proof.unknowns) {
      require(DictionaryIntervals::verify_unknown(proof.dict.stmt.gap_root, u.term, u.gap,
                                                  config_.dict_prime_config(), batch, what),
              what);
    }
  }

  // (e) Three-valued evaluation over the facts: definitely TRUE for every
  // claimed satisfier, definitely FALSE for every check doc.
  auto lookup_for = [&](std::uint64_t d) {
    return [&, d](const std::string& term) -> Truth {
      if (std::binary_search(unknowns.begin(), unknowns.end(), term)) return Truth::kFalse;
      auto it = std::lower_bound(boolean.terms.begin(), boolean.terms.end(), term);
      if (it == boolean.terms.end() || *it != term) return Truth::kUnknown;
      const BooleanTermFacts& f =
          proof.facts[static_cast<std::size_t>(it - boolean.terms.begin())];
      if (std::binary_search(f.members.begin(), f.members.end(), d)) return Truth::kTrue;
      if (std::binary_search(f.nonmembers.begin(), f.nonmembers.end(), d)) {
        return Truth::kFalse;
      }
      return Truth::kUnknown;
    };
  };
  for (std::uint64_t d : boolean.docs) {
    require(eval_query(boolean.expr, lookup_for(d)) == Truth::kTrue,
            "claimed result doc does not provably satisfy the query");
  }
  for (std::uint64_t c : boolean.check_docs) {
    require(eval_query(boolean.expr, lookup_for(c)) == Truth::kFalse,
            "check doc not provably excluded by the query");
  }

  // (f, part 2) The top-k claim is exactly the canonical ranking of the
  // (now provably exact) scores.
  if (boolean.top_k == 0) {
    require(boolean.ranked.empty(), "ranking claimed without top-k");
  } else {
    require(boolean.ranked == topk_by_tf(boolean.docs, boolean.postings, boolean.top_k),
            "top-k claim does not match the proven scores");
  }
}

void ResultVerifier::verify_accumulator_integrity(const MultiKeywordResponse& multi,
                                                  const AccumulatorIntegrity& integrity,
                                                  VerifyBatch& batch) const {
  const SearchResult& result = multi.result;
  const QueryProof& proof = multi.proof;
  const std::size_t q = result.keywords.size();
  require(integrity.base_keyword < q, "integrity base keyword out of range");
  const bool interval_scheme = uses_interval_witnesses(proof.scheme);
  require(integrity.check_membership.interval_form == interval_scheme,
          "integrity evidence form does not match declared scheme");
  const TermStatement& base = proof.terms[integrity.base_keyword].stmt;

  require(is_sorted_unique(integrity.check_docs), "check docs not a sorted set");
  require(sets_disjoint(integrity.check_docs, result.docs),
          "check docs overlap the result");
  // Completeness pin: |S| + |C| must exhaust the owner-signed posting count,
  // so S ∪ C (both proven subsets) is the *entire* base set and no document
  // can have been silently dropped.
  require(result.docs.size() + integrity.check_docs.size() == base.posting_count,
          "integrity proof does not cover the whole base posting list");
  const char* check_what = "check-doc membership proof invalid";
  require(integrity.check_membership.verify(base.doc_acc, base.doc_root, integrity.check_docs,
                                            *doc_primes_, batch, check_what),
          check_what);

  // Every check doc must be proven absent from exactly one other keyword.
  U64Set covered;
  for (const NonmembershipGroup& g : integrity.groups) {
    require(g.keyword < q, "nonmembership group keyword out of range");
    require(g.keyword != integrity.base_keyword,
            "nonmembership group may not target the base keyword");
    require(g.evidence.interval_form == interval_scheme,
            "integrity evidence form does not match declared scheme");
    require(is_sorted_unique(g.docs), "nonmembership group docs not sorted");
    require(is_subset(g.docs, integrity.check_docs),
            "nonmembership group covers unknown docs");
    require(sets_disjoint(g.docs, covered), "check doc covered twice");
    covered = set_union(covered, g.docs);
    const TermStatement& target = proof.terms[g.keyword].stmt;
    const char* what = "nonmembership proof invalid";
    require(g.evidence.verify(target.doc_acc, target.doc_root, g.docs, *doc_primes_, batch, what),
            what);
  }
  require(covered == integrity.check_docs, "not all check docs proven absent");
}

void ResultVerifier::verify_bloom_integrity(const MultiKeywordResponse& multi,
                                            const BloomIntegrity& integrity,
                                            std::uint64_t response_epoch,
                                            VerifyBatch& batch) const {
  const SearchResult& result = multi.result;
  const QueryProof& proof = multi.proof;
  const std::size_t q = result.keywords.size();
  require(integrity.parts.size() == q, "bloom integrity needs one part per keyword");

  std::vector<CountingBloom> filters;
  filters.reserve(q);
  const bool interval_scheme = proof.scheme == SchemeKind::kHybrid;
  for (std::size_t i = 0; i < q; ++i) {
    const BloomKeywordPart& part = integrity.parts[i];
    require(part.check_membership.interval_form == interval_scheme,
            "integrity evidence form does not match declared scheme");
    require(part.bloom.verify(owner_key_), "bloom attestation signature invalid");
    require(part.bloom.stmt.term == result.keywords[i],
            "bloom attestation term mismatch");
    require(part.bloom.stmt.epoch <= response_epoch,
            "bloom attestation epoch newer than response epoch");
    require(part.bloom.stmt.doc_bloom.params == config_.bloom,
            "bloom attestation parameter mismatch");
    // The signed filter must describe the signed posting list.
    require(part.bloom.stmt.doc_bloom.element_count == proof.terms[i].stmt.posting_count,
            "bloom element count does not match posting count");
    filters.push_back(decompress_bloom(part.bloom.stmt.doc_bloom));
  }

  // Disjointness (§III-E): every C_i is disjoint from the claimed result,
  // and no element may appear in *all* check sets — a document hidden from
  // the true intersection would have to (it belongs to every keyword's
  // set), which is exactly how dropped results are caught.  For Q = 2 this
  // reduces to the paper's pairwise disjointness; for Q >= 3 an element
  // may honestly sit in several (but not all) differences X_i \ X.
  U64Set common = integrity.parts[0].check_elements;
  for (std::size_t i = 0; i < q; ++i) {
    const U64Set& ci = integrity.parts[i].check_elements;
    require(is_sorted_unique(ci), "check elements not a sorted set");
    require(sets_disjoint(ci, result.docs), "check elements overlap the result");
    if (i > 0) common = set_intersection(common, ci);
  }
  require(common.empty(), "an element appears in every check set");

  // Slot accounting (Eq 7/8/9 generalized to Q filters).
  std::vector<std::span<const std::uint64_t>> check_sets;
  check_sets.reserve(q);
  for (const BloomKeywordPart& part : integrity.parts) check_sets.push_back(part.check_elements);
  const SlotAccounting slots = check_slot_accounting(filters, result.docs, check_sets);
  require(slots != SlotAccounting::kResultExceedsFilters,
          "result filter exceeds the signed filters");
  require(slots != SlotAccounting::kGapNotClosed, "check elements do not close the filter gap");

  // C_i ⊆ X_i via membership evidence on the doc accumulator.
  for (std::size_t i = 0; i < q; ++i) {
    const BloomKeywordPart& part = integrity.parts[i];
    const char* what = "check-element membership proof invalid";
    require(part.check_membership.verify(proof.terms[i].stmt.doc_acc,
                                         proof.terms[i].stmt.doc_root, part.check_elements,
                                         *doc_primes_, batch, what),
            what);
  }
}

void ResultVerifier::verify_single(const SingleKeywordResponse& single,
                                   std::uint64_t response_epoch) const {
  require(single.attestation.verify(owner_key_), "term attestation signature invalid");
  require(single.attestation.stmt.epoch <= response_epoch,
          "attestation epoch newer than response epoch");
  require(single.attestation.stmt.term == single.keyword, "attestation term mismatch");
  require(single.attestation.stmt.posting_count == single.postings.size(),
          "posting count mismatch");
  require(postings_digest(single.postings) == single.attestation.stmt.postings_digest,
          "postings digest mismatch");
}

void ResultVerifier::verify_unknown(const UnknownKeywordResponse& unknown,
                                    std::uint64_t response_epoch, VerifyBatch& batch) const {
  require(unknown.dict.verify(owner_key_), "dictionary attestation signature invalid");
  require(unknown.dict.stmt.epoch <= response_epoch,
          "dictionary attestation epoch newer than response epoch");
  const char* what = "unknown-keyword gap proof invalid";
  require(DictionaryIntervals::verify_unknown(unknown.dict.stmt.gap_root, unknown.keyword,
                                              unknown.gap, config_.dict_prime_config(), batch,
                                              what),
          what);
}

}  // namespace vc
