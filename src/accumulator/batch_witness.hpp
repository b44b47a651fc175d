// Batched membership-witness generation (the RootFactor algorithm of
// Sander–Ta-Shma–Yung, as used by accumulator-based authenticated sets).
//
// Computing the witness of each element of an n-element set independently
// costs n exponentiations whose exponents are (n-1)-prime products — Θ(n²)
// prime-multiplications of modexp work on the public side.  RootFactor
// splits the set in halves, raises the running base to the *opposite*
// half's product, and recurses:
//
//   RootFactor(b, X):
//     if |X| = 1: emit b                       // b = g^(Π set \ {x})
//     bL = b^(Π X_right);  bR = b^(Π X_left)
//     RootFactor(bL, X_left); RootFactor(bR, X_right)
//
// Each of the O(log n) levels exponentiates by ~n·rep_bits total exponent
// bits, so the whole batch costs O(n log n) instead of O(n²) — the engine
// behind fast interval-witness refresh and the bench_batch_witness numbers.
//
// With the trapdoor (owner side) the exponents can be reduced mod φ(n), so
// one prefix/suffix sweep gives every Π_{j≠i} x_j as a short number and
// the batch costs one short exponentiation per element instead.
//
// This is the one all-witnesses routine: the interval middle layer, the
// dictionary gap witnesses and the witness tier all call it.  All
// witnesses are byte-identical to what per-element membership_witness
// returns (the witness value g^(Π rest) mod n is unique), and the tree
// levels / per-element powers fan out over ctx.pool() when one is attached.
#pragma once

#include <span>
#include <vector>

#include "accumulator/accumulator.hpp"

namespace vc {

// Per-element form: out[i] = g^(Π_{j≠i} primes[j]) mod n — the aggregated
// membership witness of {primes[i]} within the set accumulated from
// `primes`.  Empty input gives an empty output.
[[nodiscard]] std::vector<Bigint> batch_membership_witnesses(
    const AccumulatorContext& ctx, std::span<const Bigint> primes);

}  // namespace vc
