// Pinned accumulator parameter sets.
//
// Safe-prime search for a 1024-bit modulus takes tens of seconds on one
// core, far too slow to repeat in every test and benchmark binary.  These
// parameters were generated once with generate_modulus(seed-derived RNG,
// safe=true) and pinned here; standard_accumulator_modulus() returns them
// instantly.  A test checks that each pinned p and q is a safe prime.  The trapdoor (p, q) is included because this library plays
// both roles (owner and cloud) in-process; a deployment would of course
// never publish it.
#pragma once

#include <cstddef>

#include "crypto/keygen.hpp"

namespace vc {

// Supported pinned sizes: 512, 1024, 2048 bits.  Other sizes are generated
// on the fly (slow for safe primes).  Results are memoized per size.
const RsaModulus& standard_accumulator_modulus(std::size_t modulus_bits = 1024);

// The matching pinned QR_n generator.
const Bigint& standard_qr_generator(std::size_t modulus_bits = 1024);

}  // namespace vc
