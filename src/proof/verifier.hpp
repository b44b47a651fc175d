// Result verification (§III-E) for the owner and for third parties.
//
// The verifier reconstructs nothing from local state — it holds only the
// public accumulator parameters, the owner's and the cloud's verify keys,
// and the index configuration (to derive prime representatives).  Passing
// an owner context (with trapdoor) gives the fast owner-side verification;
// a public context gives the slower third-party verification (§III-F).
//
// Table I's two modes map to the verifier's prime cache: "default" starts
// cold (the verifier recomputes every representative), "with prime" starts
// from a warm cache (the representatives effectively ship with the proof).
#pragma once

#include "proof/proof_types.hpp"
#include <optional>

#include "accumulator/verify_batch.hpp"
#include "vindex/index_snapshot.hpp"

namespace vc {

class ResultVerifier {
 public:
  ResultVerifier(AccumulatorContext ctx, VerifyKey owner_key, VerifyKey cloud_key,
                 VerifiableIndexConfig config);

  // Performs every check of §III-E; throws VerifyError naming the first
  // failed check.  The response's raw keywords are not interpreted — the
  // response body names the normalized keywords the proofs are about.
  //
  // Every structural check runs first; the accumulator equations of all
  // the response's evidence are recorded in one VerifyBatch and checked
  // together at the end, with coefficients keyed by this verifier's own
  // random secret and bound to the signed payload.  A failed accumulator
  // check is reported with the message of the first failing equation.
  //
  // Epoch discipline: every owner attestation in the response must carry an
  // epoch no newer than the (cloud-signed) response epoch — a response can
  // never mix in evidence from a later index version.  When an expected
  // epoch is pinned, the response epoch must equal it exactly, which also
  // rejects rollback to older snapshots.
  void verify(const SearchResponse& response) const;

  // Pin the snapshot epoch responses must be served from (std::nullopt
  // clears the pin).  An owner who just pushed epoch E pins E to reject a
  // cloud still answering from an older snapshot.
  void pin_epoch(std::optional<std::uint64_t> expected) { pinned_epoch_ = expected; }
  [[nodiscard]] std::optional<std::uint64_t> pinned_epoch() const { return pinned_epoch_; }

  // The verifier-side prime manager; pre-warm to model Table I "with prime".
  [[nodiscard]] PrimeCache& tuple_primes() const { return *tuple_primes_; }
  [[nodiscard]] PrimeCache& doc_primes() const { return *doc_primes_; }
  void reset_prime_caches() const;

 private:
  void verify_multi(const MultiKeywordResponse& multi, std::uint64_t response_epoch,
                    VerifyBatch& batch) const;
  void verify_boolean(const BooleanQueryResponse& boolean, std::uint64_t response_epoch,
                      VerifyBatch& batch) const;
  void verify_single(const SingleKeywordResponse& single, std::uint64_t response_epoch) const;
  void verify_unknown(const UnknownKeywordResponse& unknown, std::uint64_t response_epoch,
                      VerifyBatch& batch) const;
  void verify_accumulator_integrity(const MultiKeywordResponse& multi,
                                    const AccumulatorIntegrity& integrity,
                                    VerifyBatch& batch) const;
  void verify_bloom_integrity(const MultiKeywordResponse& multi,
                              const BloomIntegrity& integrity, std::uint64_t response_epoch,
                              VerifyBatch& batch) const;

  AccumulatorContext ctx_;
  VerifyKey owner_key_;
  VerifyKey cloud_key_;
  VerifiableIndexConfig config_;
  mutable std::unique_ptr<PrimeCache> tuple_primes_;
  mutable std::unique_ptr<PrimeCache> doc_primes_;
  std::optional<std::uint64_t> pinned_epoch_;
  HmacSha256 batch_key_;  // keys the batch coefficients; drawn at construction
};

}  // namespace vc
