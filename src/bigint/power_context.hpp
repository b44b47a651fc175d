// Trapdoor-aware modular exponentiation.
//
// The data owner knows the factorization n = p·q and therefore φ(n); by
// Euler's theorem it can reduce every exponent mod φ(n) and additionally
// split the exponentiation over p and q with CRT (§II-B3).  The cloud and
// any third party know only n and must exponentiate with full-width
// exponents — exactly the asymmetry the paper's Table I measures.  Both
// sides share this one interface so benchmarks can time either.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bigint/bigint.hpp"

namespace vc {

// Serializable image of a *public-side* fixed-base table: powers[i] =
// base^(2^(window·i)) mod n, enough for exponents up to capacity_bits.  The
// epoch store persists this so a cold restart adopts the table instead of
// redoing capacity_bits squarings.  Trapdoor-side tables are never exported:
// they live mod the secret factors p and q.
struct FixedBaseSnapshot {
  Bigint base;
  std::size_t window = 0;
  std::size_t capacity_bits = 0;
  std::vector<Bigint> powers;
};

class PowerContext {
 public:
  // Public side: only the modulus is known.
  explicit PowerContext(Bigint n);
  // Trapdoor side: p and q are the (secret) factors of n.
  PowerContext(Bigint n, Bigint p, Bigint q);

  [[nodiscard]] bool has_trapdoor() const { return trapdoor_.has_value(); }
  [[nodiscard]] const Bigint& modulus() const { return n_; }
  // Euler totient; throws UsageError when no trapdoor is held.
  [[nodiscard]] const Bigint& phi() const;

  // base^exp mod n.  A negative exponent inverts base^|exp| (requires
  // gcd(base, n) = 1, which holds for all accumulator values in QR_n), so a
  // fixed-base table serves both signs.  With a trapdoor the exponent is
  // reduced mod phi(n) and the two prime powers are combined with CRT;
  // without one this is a plain powm — unless a fixed-base table has been
  // prepared for `base`, in which case the windowed evaluation below takes
  // over.
  [[nodiscard]] Bigint pow(const Bigint& base, const Bigint& exp) const;

  // Precomputes a windowed fixed-base table (BGMW bucket method): powers
  // base^(2^(w·i)) are stored so a later exponentiation by an e of up to
  // `max_exp_bits` bits costs ~(bits/w + 2^w) multiplications and *no*
  // squarings, against about one multiplication per bit for a generic
  // powm.  Each call evaluates at its own digit width v <= w (w-bit digits
  // split into ceil(w/v) columns joined by a few squarings), so exponents
  // far narrower than `max_exp_bits` still pay near their own optimum;
  // exponents where even that loses to powm take the generic path.  The
  // accumulator generator g is the base of nearly every cloud-side witness
  // exponentiation, which is what makes one table pay for thousands of
  // calls.  With the trapdoor, exponents are served after reduction mod
  // p-1 / q-1, so the two CRT tables are modulus-sized and `max_exp_bits`
  // is irrelevant to their memory.  The table is immutable once built and
  // shared by copies of this context; prepare it before publishing the
  // context to other threads.  Results are identical to the generic path
  // bit for bit.
  void prepare_fixed_base(const Bigint& base, std::size_t max_exp_bits);
  [[nodiscard]] bool has_fixed_base(const Bigint& base) const {
    return fixed_ != nullptr && fixed_base_matches(base);
  }

  // Widest exponent the current table serves: 0 without a table, SIZE_MAX on
  // the trapdoor side (exponents arrive reduced mod p-1 / q-1, so capacity
  // never limits them).
  [[nodiscard]] std::size_t fixed_base_capacity_bits() const;

  // Public side only.  export_fixed_base() images the current table (nullopt
  // when there is none or the context holds the trapdoor); import_fixed_base()
  // adopts a previously exported image after validating it against this
  // modulus — powers[0] must equal base mod n, the chain is spot-checked, and
  // entry count must match window/capacity.  A damaged image throws
  // UsageError; an adopted table is byte-for-byte the one prepare_fixed_base
  // would have rebuilt.
  [[nodiscard]] std::optional<FixedBaseSnapshot> export_fixed_base() const;
  void import_fixed_base(const FixedBaseSnapshot& snap);

  [[nodiscard]] Bigint mul(const Bigint& a, const Bigint& b) const {
    return Bigint::mod(a * b, n_);
  }
  [[nodiscard]] Bigint inv(const Bigint& a) const { return Bigint::invert_mod(a, n_); }

 private:
  struct Trapdoor {
    Bigint p, q;
    Bigint phi;
    Bigint p_minus_1, q_minus_1;
    Bigint q_inv_mod_p;  // CRT recombination constant
  };
  struct FixedBase;  // defined in power_context.cpp

  [[nodiscard]] bool fixed_base_matches(const Bigint& base) const;

  Bigint n_;
  std::optional<Trapdoor> trapdoor_;
  // Immutable after prepare_fixed_base; shared across copies (the tables
  // can reach tens of MB for megabit exponent capacities).
  std::shared_ptr<const FixedBase> fixed_;
};

}  // namespace vc
