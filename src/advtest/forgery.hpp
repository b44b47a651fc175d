// Forgery taxonomy for the adversarial soundness harness.
//
// The paper's whole value proposition (§III–§IV) is that the verifier
// catches a cheating cloud.  Byte-level corruption (tests/corruption_test)
// exercises the parser, not the scheme: the dangerous adversary commits
// *semantic* forgeries — well-formed, validly cloud-signed proofs that lie.
// Every class below names one such lie; src/advtest constructs them for
// real queries and the soundness gate asserts the verifier kills all of
// them.  docs/SOUNDNESS.md documents the threat model and what is out of
// scope (notably pure-replay freshness attacks against a verifier that does
// not pin an epoch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proof/proof_types.hpp"

namespace vc::advtest {

enum class ForgeryClass : std::uint8_t {
  // Hide a qualifying document from the result set and regenerate proofs
  // for the truncated lie (the economic-incentive cheat).
  kDropResultDoc = 0,
  // Return a superset: one extra document that does not match every
  // keyword, with a fabricated posting where needed.
  kAddExtraDoc,
  // Substitute genuinely-authenticated membership evidence that argues
  // about a *different* subset or interval than the claimed values.
  kWitnessSubstitution,
  // After an owner update, reuse a stale (pre-update) attestation with the
  // fresh result — the lazy cloud that skips re-proving.
  kStaleAttestation,
  // Relabel the declared scheme so the carried integrity encoding (or
  // evidence form) no longer matches the hybrid policy's actual choice.
  kEncodingSwap,
  // Decrement / inflate counters inside the owner-signed counting Bloom
  // filter, or lie about its element count.
  kBloomCounterTamper,
  // Tamper with check sets: fabricate a check element that belongs to no
  // keyword set, or omit one the accounting requires.
  kForgedCheckElement,
  // Answer a keyword the cloud provably indexes via an unknown-keyword
  // gap-interval proof (claiming ignorance of indexed content).
  kKnownKeywordGap,
  // Seeded structured mutations of the deserialized proof objects
  // (ProofMutator): field swaps, witness perturbation, boundary shifts,
  // aggregation tampering.
  kStructuredMutation,
  // Rewind the signed response epoch below an attached attestation's epoch:
  // a response claiming to be served from snapshot E while carrying owner
  // evidence stamped after E (the cross-epoch proof mix).
  kEpochMixing,
  // Boolean queries: hide a satisfier of one OR branch by moving it from
  // the result set S to the check set C, with otherwise-honest facts — the
  // verifier's three-valued re-evaluation must find the doc provably TRUE.
  kOrDroppedBranch,
  // Boolean queries: smuggle a non-satisfier from the check set C into the
  // result S (the NOT complement lie), with its true facts attached — the
  // re-evaluation must find it provably FALSE.
  kNotFalseComplement,
  // Top-k: replace the top-ranked document with a lower-scoring one (or
  // permute / inflate the claim) — the recomputed canonical ranking over
  // the proven scores must disagree.
  kTopkOmittedWinner,
  // Top-k: inflate one disclosed posting's tf so the scores and ranking are
  // self-consistent but the tuple is no longer the owner's — correctness
  // evidence can only argue for the provable subset.
  kTopkInflatedTf,
  // Log-structured delta chains: serve one keyword of a multi-keyword
  // result from a stale chain layer — the live result set and live epoch
  // stamp, but that keyword's attestation and correctness evidence taken
  // from the pre-delta entry (the cloud that "forgets" to apply a delta to
  // one term while claiming the chain head).  The stale accumulator cannot
  // argue for postings only the delta added, so the verifier must kill it.
  kEpochChainSplice,
  // Interval descriptors ship the counter of their middle-layer prime, and
  // the verifier derives only that candidate.  Lie about it: a counter
  // whose candidate is composite, a larger counter whose candidate is a
  // prime the signed root never accumulated, or another interval's
  // counter — the descriptor and middle witness stay genuine.
  kDescriptorCounter,
};

inline constexpr std::size_t kForgeryClassCount = 16;

const char* forgery_class_name(ForgeryClass c);

// One replayable mutation step.  `a`/`b` are the step's integer operands
// (indices, document ids, counter slots) so a trace pins the exact forgery.
struct MutationStep {
  std::string name;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

std::string format_trace(const std::vector<MutationStep>& trace);

enum class ForgeOutcome : std::uint8_t {
  // The class cannot target this response shape (e.g. Bloom-counter
  // tampering against a single-keyword response).
  kNotApplicable = 0,
  // The forging prover itself threw: the lie cannot even be constructed.
  // Counts as a kill — detection happened at generation time.
  kRefused,
  // A well-formed, cloud-signed lie was produced; the verifier must reject.
  kForged,
};

struct ForgedResponse {
  ForgeOutcome outcome = ForgeOutcome::kNotApplicable;
  SearchResponse response;  // meaningful only when outcome == kForged
  std::vector<MutationStep> trace;
};

}  // namespace vc::advtest
