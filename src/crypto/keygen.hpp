// RSA parameter generation: random primes, safe primes, accumulator moduli
// and QR_n generators.
//
// The accumulator modulus n = p·q uses *safe* primes p = 2p'+1 (§II-A) so
// that QR_n has no small subgroups.  Safe-prime search is expensive, so the
// library also ships pinned standard parameter sets (standard_params.hpp)
// generated once with this code; tests regenerate small moduli from seeds.
#pragma once

#include <cstddef>

#include "bigint/bigint.hpp"
#include "bigint/power_context.hpp"
#include "support/rng.hpp"

namespace vc {

// Random prime with exactly `bits` bits (top bit set).
Bigint random_prime(DeterministicRng& rng, std::size_t bits);

// Random safe prime p = 2p'+1 with exactly `bits` bits.
Bigint random_safe_prime(DeterministicRng& rng, std::size_t bits);

struct RsaModulus {
  Bigint n;
  Bigint p;
  Bigint q;
};

// Generates n = p*q with |n| ~ modulus_bits.  safe=true searches safe primes.
RsaModulus generate_modulus(DeterministicRng& rng, std::size_t modulus_bits, bool safe);

// Random generator of QR_n: g = r^2 mod n for random r coprime to n,
// rejecting the degenerate g in {0, 1}.
Bigint random_qr_generator(DeterministicRng& rng, const Bigint& n);

}  // namespace vc
