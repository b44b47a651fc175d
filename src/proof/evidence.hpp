// Membership / nonmembership evidence in flat or interval form.
//
// Every scheme proves the same two statements — "these values belong to the
// term's set" and "these values are absent from the term's set" — but the
// Accumulator/Bloom schemes argue against the *flat* accumulator (Eq 2–4,
// witnesses cost time linear in the set size) while the Interval
// Accumulator and Hybrid schemes argue against the interval-tree root
// (§III-D1, witnesses touch only small intervals).  Evidence carries its
// own form tag so a verifier knows which signed value to check against.
#pragma once

#include "accumulator/witness.hpp"
#include "interval/interval_index.hpp"

namespace vc {

struct MembershipEvidence {
  bool interval_form = false;
  Bigint flat_witness;             // when !interval_form (Eq 4)
  IntervalMembershipProof interval;  // when interval_form

  // Checks the evidence against the appropriate signed accumulator value.
  // `values` are the claimed members (element encodings).  The batch form
  // returns false on a structural failure and records the accumulator
  // equations in `batch` under `failure`; the other checks a batch of its
  // own.
  [[nodiscard]] bool verify(const Bigint& flat_acc, const Bigint& interval_root,
                            std::span<const std::uint64_t> values, PrimeCache& primes,
                            VerifyBatch& batch, const char* failure) const;
  [[nodiscard]] bool verify(const AccumulatorContext& ctx, const Bigint& flat_acc,
                            const Bigint& interval_root,
                            std::span<const std::uint64_t> values,
                            PrimeCache& primes) const;

  void write(ByteWriter& w) const;
  static MembershipEvidence read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

struct NonmembershipEvidence {
  bool interval_form = false;
  NonmembershipWitness flat;          // when !interval_form (§II-B2)
  IntervalNonmembershipProof interval;  // when interval_form

  [[nodiscard]] bool verify(const Bigint& flat_acc, const Bigint& interval_root,
                            std::span<const std::uint64_t> values, PrimeCache& primes,
                            VerifyBatch& batch, const char* failure) const;
  [[nodiscard]] bool verify(const AccumulatorContext& ctx, const Bigint& flat_acc,
                            const Bigint& interval_root,
                            std::span<const std::uint64_t> values,
                            PrimeCache& primes) const;

  void write(ByteWriter& w) const;
  static NonmembershipEvidence read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

}  // namespace vc
