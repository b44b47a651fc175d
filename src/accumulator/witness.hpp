// Aggregated (non)membership witnesses (§II-B, Eq 2–4).
//
// Membership: for a subset X' ⊆ X with v = Π X', the witness is
// c_{X'} = g^{u/v} where u = Π X; verification checks (c_{X'})^v = c.
//
// Nonmembership: for Y with Y ∩ X = ∅, Bézout coefficients a·u + b·v = 1
// (which exist because all elements are distinct primes) give the witness
// (a, d = g^{-b}); verification checks c^a = d^v · g (mod n).
//
// Cost asymmetry, which drives the paper's entire design: the owner holds
// φ(n) and computes either witness in O(|set| modular mults + one short
// exponentiation), while the cloud must manipulate the full integer product
// u (thousands of bits) — the linear-in-set-size times of Fig 2.  Both
// paths live here behind the same functions, switched by the context role.
#pragma once

#include <span>

#include "accumulator/accumulator.hpp"

namespace vc {

// --- membership -------------------------------------------------------------

// Witness that some subset belongs to the set accumulated as c = g^(Π set).
// `rest` must be set \ subset; the witness is g^(Π rest)  (Eq 4).
[[nodiscard]] Bigint membership_witness(const AccumulatorContext& ctx,
                                        std::span<const Bigint> rest);

// Checks (witness)^(Π subset) == c  (mod n): a VerifyBatch of one.
[[nodiscard]] bool verify_membership(const AccumulatorContext& ctx, const Bigint& c,
                                     const Bigint& witness, std::span<const Bigint> subset);

// Shamir's-trick aggregation over precomputed per-element witnesses.  Given
// w_i = g^(u/p_i) for distinct primes p_i of one accumulated set (u = Π of
// the whole set — exactly what batch_membership_witnesses materializes),
// combines them into the subset witness g^(u/Π p_i): for coprime v_L, v_R
// with Bézout coefficients s·v_L + t·v_R = 1,
//   (w_L)^t · (w_R)^s = g^(u·(t·v_R + s·v_L)/(v_L·v_R)) = g^(u/(v_L·v_R)),
// applied along a balanced divide-and-conquer tree.  The result is the same
// unique residue membership_witness(ctx, set \ subset) computes, so proof
// bytes are identical — but the cost is O(k log k) short exponentiations
// over rep-width coefficients instead of one full-width modexp over the
// complement product, and never touches the elements outside the subset.
// Throws UsageError on a size mismatch or empty input, CryptoError when two
// primes are not coprime (duplicate elements).
[[nodiscard]] Bigint aggregate_membership_witnesses(const AccumulatorContext& ctx,
                                                    std::span<const Bigint> primes,
                                                    std::span<const Bigint> witnesses);

// --- nonmembership ----------------------------------------------------------

struct NonmembershipWitness {
  Bigint a;  // Bézout coefficient (may be negative)
  Bigint d;  // g^{-b} mod n

  void write(ByteWriter& w) const;
  static NonmembershipWitness read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
  friend bool operator==(const NonmembershipWitness&, const NonmembershipWitness&) = default;
};

// Witness that every element of `outsiders` is absent from the set
// accumulated as c = g^(Π set_primes).  Throws CryptoError when the sets
// are not coprime (i.e. some outsider actually belongs to the set) — a
// correct cloud never hits that, and a cheating one cannot forge around it.
//
// With the trapdoor, u only ever appears reduced mod v·φ(n), so the cost is
// |set| short multiplications; without it, the full product and an
// extended gcd over it are required.
[[nodiscard]] NonmembershipWitness nonmembership_witness(const AccumulatorContext& ctx,
                                                         std::span<const Bigint> set_primes,
                                                         std::span<const Bigint> outsiders);

// Checks c^a == d^(Π outsiders) · g  (mod n): a VerifyBatch of one.
[[nodiscard]] bool verify_nonmembership(const AccumulatorContext& ctx, const Bigint& c,
                                        const NonmembershipWitness& w,
                                        std::span<const Bigint> outsiders);

}  // namespace vc
