// A malicious cloud operator for the soundness harness.
//
// Wraps a live CloudService and emits *semantic* forgeries: every forged
// response is well-formed, deserializes cleanly, and carries a valid cloud
// signature — because it is produced with the cloud's own signing key, just
// as a real cheating operator would.  The lies live one level down, in the
// claimed results and the evidence attached to them.  Each ForgeryClass
// implements one of the threat-model cheats (docs/SOUNDNESS.md) and is
// deterministic given its seed, so any accepted forgery replays exactly.
#pragma once

#include <map>
#include <memory>

#include "advtest/forgery.hpp"
#include "advtest/proof_mutator.hpp"
#include "protocol/cloud.hpp"

namespace vc::advtest {

class MaliciousCloud {
 public:
  // `cloud` supplies the response-signing key and stays alive for the
  // harness's lifetime.  `snapshot` is the epoch the cloud currently
  // serves; `stale_snapshot`, when given, is a pre-update epoch of the
  // same index and enables kStaleAttestation.
  MaliciousCloud(CloudService& cloud, SnapshotPtr snapshot,
                 AccumulatorContext public_ctx,
                 SnapshotPtr stale_snapshot = nullptr);
  ~MaliciousCloud();

  // The honest control response for a query under `scheme` (cached per
  // query/scheme pair, since proving dominates the harness runtime).
  [[nodiscard]] const SearchResponse& honest(const SignedQuery& query, SchemeKind scheme);

  // Attempts the forgery class against the query.  Deterministic given
  // (query, cls, scheme, seed).  kNotApplicable when the class cannot
  // target the query's response shape; kRefused when even a malicious
  // prover cannot construct the lie (detection at generation time).
  [[nodiscard]] ForgedResponse forge(const SignedQuery& query, ForgeryClass cls,
                                     SchemeKind scheme, std::uint64_t seed);

 private:
  struct Keyed {
    std::uint64_t query_id;
    SchemeKind scheme;
    auto operator<=>(const Keyed&) const = default;
  };

  [[nodiscard]] SearchResponse sign(SearchResponse resp) const;
  [[nodiscard]] const IndexEntry* entry(const std::string& keyword) const;
  [[nodiscard]] std::vector<const IndexEntry*> entries_for(
      const SearchResult& result) const;

  // Correctness evidence that proves only the *provable* subset of each
  // keyword's claimed tuples — the malicious prover's stock move when the
  // claim contains tuples the index cannot argue for.
  [[nodiscard]] CorrectnessProof provable_correctness(const Prover& prover,
                                                      const IndexSnapshot& snap,
                                                      const SearchResult& result,
                                                      bool interval_form) const;

  [[nodiscard]] ForgedResponse forge_drop(const SearchResponse& base, SchemeKind scheme,
                                          DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_add(const SearchResponse& base, SchemeKind scheme,
                                         DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_witness_substitution(const SearchResponse& base,
                                                          DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_stale(const SignedQuery& query, SchemeKind scheme);
  [[nodiscard]] ForgedResponse forge_encoding_swap(const SearchResponse& base,
                                                   DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_bloom_tamper(const SearchResponse& base,
                                                  DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_check_element(const SearchResponse& base,
                                                   DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_known_gap(const SignedQuery& query);
  [[nodiscard]] ForgedResponse forge_mutation(const SearchResponse& base,
                                              std::uint64_t seed);
  [[nodiscard]] ForgedResponse forge_epoch_mixing(const SearchResponse& base);
  [[nodiscard]] ForgedResponse forge_or_drop(const SearchResponse& base,
                                             DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_not_false(const SearchResponse& base,
                                               DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_topk_omitted(const SearchResponse& base,
                                                  DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_topk_inflated(const SearchResponse& base,
                                                   DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_descriptor_counter(const SearchResponse& base,
                                                        DeterministicRng& rng);
  [[nodiscard]] ForgedResponse forge_epoch_chain_splice(const SignedQuery& query,
                                                        SchemeKind scheme,
                                                        DeterministicRng& rng);

  // Rebuilds a boolean body's facts and correctness honestly for its
  // (possibly tampered) S / C / postings: every doc in S ∪ C decided for
  // every term by its *true* membership, guards' full sets included, tuple
  // evidence over the provable subset.  The dishonesty then lives purely in
  // the claimed sets — exactly what the three-valued re-evaluation and the
  // ranking recomputation must catch.
  void rebuild_boolean_facts(BooleanQueryResponse& body) const;

  CloudService& cloud_;
  SnapshotPtr snap_;
  AccumulatorContext ctx_;
  SnapshotPtr stale_snap_;
  std::unique_ptr<Prover> prover_;        // proves against the live snapshot
  std::unique_ptr<Prover> stale_prover_;  // proves against the stale snapshot
  std::map<Keyed, SearchResponse> honest_cache_;
};

}  // namespace vc::advtest
