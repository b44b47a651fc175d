// Batched verification of accumulator equations (small-exponent test).
//
// Verifying a response means checking a list of equations Π_j x_j^{e_j} = y
// (mod n): descriptor and gap witnesses w^p = root, membership parts
// ĉ^{Πp} = b, nonmembership parts c^a · d^{-v} = g.  Checked one at a time,
// each pays its own squaring chain.  VerifyBatch records them and checks
// them all at once, following Bellare, Garay and Rabin (EUROCRYPT 1998):
// with a secret 64-bit r_i per equation it tests
//
//   (Π_i Π_j x_ij^{e_ij·r_i})^2 = (Π_i y_i^{r_i})^2   (mod n),
//
// a term with a negative exponent moving to the other side, as one
// multi-exponentiation (PowerContext::multi_pow) in which every base shares
// one squaring chain.  A false equation survives with probability at most 2^-64 unless
// the prover can factor n; squaring is what makes the bound hold in all of
// Z_n* and not only in QR_n.  It also means x^e = -y is accepted for x^e =
// y, which is harmless because every exponent the verifier uses is odd:
// -x is then a genuine witness.  docs/SOUNDNESS.md has the argument.
//
// When the combined test fails, the equations are checked again one by one,
// exactly and in recording order, and the first false one is reported, so a
// rejection names the same check an unbatched verifier would have named.
// A batch of one equation is always checked exactly.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "accumulator/witness.hpp"
#include "hash/hmac.hpp"

namespace vc {

class VerifyBatch {
 public:
  // r_i is the first 8 bytes of HMAC-SHA256(key, context || u64le(i)).  A
  // verifier keys it with its own secret and binds the response it is
  // checking through `context` (the signed payload's digest), so the prover
  // cannot predict any r_i.
  VerifyBatch(const AccumulatorContext& ctx, const HmacSha256& key,
              std::span<const std::uint8_t> context);
  // A standalone batch: its coefficients come from a fresh random key,
  // drawn only if the batch holds more than one equation.
  explicit VerifyBatch(const AccumulatorContext& ctx);

  // Each records one equation; `failure` (a string literal, not null) is
  // the message a VerifyError reporting it carries.
  // witness^(Π subset) = c  (Eq 4).
  void add_membership(const Bigint& c, const Bigint& witness, std::span<const Bigint> subset,
                      const char* failure);
  // c^a = d^(Π outsiders) · g  (Eq 3), recorded as c^a · d^(-Π outsiders) = g.
  void add_nonmembership(const Bigint& c, const NonmembershipWitness& w,
                         std::span<const Bigint> outsiders, const char* failure);

  // nullptr when every recorded equation holds; otherwise the failure
  // message of the first one, in recording order, that does not.
  [[nodiscard]] const char* first_failure() const;
  [[nodiscard]] bool holds() const { return first_failure() == nullptr; }
  // Throws VerifyError(first_failure()) when some equation does not hold.
  void check() const;

 private:
  // One factor x^e of an equation's left-hand side; e may be negative.
  struct Term {
    Bigint base;
    Bigint exp;
  };
  // Π terms = y (mod n).
  struct Equation {
    std::vector<Term> terms;
    Bigint y;
    const char* failure;
  };

  void add(std::vector<Term> terms, Bigint y, const char* failure);
  [[nodiscard]] bool combined_holds() const;
  [[nodiscard]] bool holds_exactly(const Equation& eq) const;

  const AccumulatorContext& ctx_;
  std::optional<HmacSha256> key_;
  Bytes context_;
  std::vector<Equation> equations_;
};

// 32 bytes from std::random_device as an HMAC key: the per-verifier secret
// behind a ResultVerifier's batch coefficients.
[[nodiscard]] HmacSha256 random_batch_key();

}  // namespace vc
