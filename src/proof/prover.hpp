// Cloud-side proof generation (§III-C, Fig 4's proof manager).
//
// The prover holds the verifiable index the owner uploaded and the *public*
// accumulator parameters — no trapdoor.  Flat witnesses therefore cost time
// linear in posting-list size (the Accumulator/Bloom schemes' weakness,
// Fig 2/5) while interval witnesses only touch ~interval_size elements per
// value (the Interval Accumulator / Hybrid schemes' strength).  Correctness
// and integrity proofs are generated concurrently when a pool is supplied,
// matching the paper's parallel proof pipeline.
#pragma once

#include "proof/hybrid_policy.hpp"
#include "proof/proof_types.hpp"
#include "vindex/index_snapshot.hpp"

namespace vc {

class ThreadPool;
class WitnessTier;
struct TermWitnessTable;

namespace advtest {
struct ProverAccess;
}  // namespace advtest

class Prover {
 public:
  // `ctx` is normally the public side; passing an owner context makes the
  // prover impersonate an owner-run cloud (used by some benchmarks).  The
  // prover serves exactly one immutable snapshot; a new epoch gets a new
  // prover (cheap: the fixed-base table is shared through the context).
  Prover(SnapshotPtr snapshot, AccumulatorContext ctx, ThreadPool* pool = nullptr);

  // Builds the full proof for a computed multi-keyword result.
  [[nodiscard]] QueryProof prove(const SearchResult& result, SchemeKind scheme) const;

  // Builds the proof for a computed boolean / top-k response: `body` arrives
  // with expr, terms, docs (S), postings, check_docs (C), top_k and ranked
  // already filled; this fills body.proof (guards, per-term facts, tuple
  // correctness, gap proofs for `unknowns`).
  void prove_boolean(BooleanQueryResponse& body, const std::vector<std::string>& unknowns,
                     SchemeKind scheme) const;

  // The integrity-choice estimate the hybrid scheme would make (exposed for
  // the ablation benchmarks).
  [[nodiscard]] HybridEstimate hybrid_estimate(const SearchResult& result) const;

 private:
  // Narrow test-only hook: the adversarial soundness harness (src/advtest)
  // uses the private witness builders to construct evidence for sets an
  // honest cloud would never argue about.  Not part of the proving API.
  friend struct advtest::ProverAccess;

  [[nodiscard]] std::vector<const IndexEntry*> lookup(
      const SearchResult& result) const;

  // Which accumulated set a membership proof argues about: the (docID, tf)
  // tuples (correctness) or the bare docIDs (integrity).  The side picks
  // the interval tree, the tier subtables, the prime cache, the element
  // encoding and the attested flat accumulator.
  enum class Side { kTuples, kDocs };

  // `tier` is the term's materialized witness table when one exists (null
  // otherwise): membership witnesses it can serve skip the complement
  // exponentiation entirely — singleton subsets are pure lookups — and any
  // miss falls back to the compute path below.  Witness residues are unique,
  // so the returned evidence is byte-identical either way.
  [[nodiscard]] MembershipEvidence prove_membership(
      Side side, const IndexEntry& entry, std::span<const std::uint64_t> values,
      bool interval_form, const TermWitnessTable* tier = nullptr) const;
  [[nodiscard]] NonmembershipEvidence prove_doc_nonmembership(
      const IndexEntry& entry, std::span<const std::uint64_t> docs,
      bool interval_form) const;

  [[nodiscard]] AccumulatorIntegrity make_accumulator_integrity(
      const SearchResult& result, std::span<const IndexEntry* const> entries,
      bool interval_form) const;
  [[nodiscard]] BloomIntegrity make_bloom_integrity(
      const SearchResult& result, std::span<const IndexEntry* const> entries,
      bool interval_form) const;

  // Witness table for `term`, or null when the term (or the whole snapshot)
  // is untiered.
  [[nodiscard]] const TermWitnessTable* tier_for(std::string_view term) const;

  SnapshotPtr snap_;
  AccumulatorContext ctx_;
  ThreadPool* pool_;
  // Captured from the snapshot at construction; the publish/open paths
  // attach the tier before provers are built over the snapshot.
  std::shared_ptr<const WitnessTier> tier_;
};

}  // namespace vc
