#include "crypto/keygen.hpp"

#include "support/errors.hpp"

namespace vc {

Bigint random_prime(DeterministicRng& rng, std::size_t bits) {
  if (bits < 2) throw UsageError("random_prime: need at least 2 bits");
  while (true) {
    Bigint c = Bigint::random_bits(rng, bits);
    // Force exact bit length and oddness.
    mpz_setbit(c.raw_mut(), bits - 1);
    mpz_setbit(c.raw_mut(), 0);
    if (is_probable_prime(c)) return c;
  }
}

Bigint random_safe_prime(DeterministicRng& rng, std::size_t bits) {
  if (bits < 4) throw UsageError("random_safe_prime: need at least 4 bits");
  while (true) {
    // Search p' prime with p = 2p'+1 also prime, testing p' first.
    Bigint pp = Bigint::random_bits(rng, bits - 1);
    mpz_setbit(pp.raw_mut(), bits - 2);
    mpz_setbit(pp.raw_mut(), 0);
    // p mod 3 == 0 happens when p' == 1 (mod 3); skip those outright.
    Bigint r3;
    mpz_tdiv_r_ui(r3.raw_mut(), pp.raw(), 3);
    if (r3.is_one()) continue;
    if (!is_probable_prime(pp)) continue;
    Bigint p = pp * Bigint(2) + Bigint(1);
    if (!is_probable_prime(p)) continue;
    return p;
  }
}

RsaModulus generate_modulus(DeterministicRng& rng, std::size_t modulus_bits, bool safe) {
  std::size_t half = modulus_bits / 2;
  Bigint p = safe ? random_safe_prime(rng, half) : random_prime(rng, half);
  Bigint q;
  do {
    q = safe ? random_safe_prime(rng, half) : random_prime(rng, half);
  } while (q == p);
  return RsaModulus{.n = p * q, .p = std::move(p), .q = std::move(q)};
}

Bigint random_qr_generator(DeterministicRng& rng, const Bigint& n) {
  while (true) {
    Bigint r = Bigint::random_below(rng, n);
    if (!Bigint::gcd(r, n).is_one()) continue;  // astronomically unlikely
    Bigint g = Bigint::mod(r * r, n);
    if (g.is_zero() || g.is_one()) continue;
    return g;
  }
}

}  // namespace vc
