#include "accumulator/witness.hpp"

#include "accumulator/verify_batch.hpp"
#include "support/errors.hpp"

namespace vc {

Bigint membership_witness(const AccumulatorContext& ctx, std::span<const Bigint> rest) {
  return ctx.pow_product(ctx.g(), rest);
}

bool verify_membership(const AccumulatorContext& ctx, const Bigint& c, const Bigint& witness,
                       std::span<const Bigint> subset) {
  VerifyBatch batch(ctx);
  batch.add_membership(c, witness, subset, "membership witness invalid");
  return batch.holds();
}

namespace {

// Pairwise Shamir combine along a balanced tree: returns (g^(u/Π range),
// Π range).  Balanced halving keeps every Bézout coefficient bounded by the
// sibling product, so total exponent work is O(k log k · rep_bits).
std::pair<Bigint, Bigint> combine_witnesses(const PowerContext& power,
                                            std::span<const Bigint> primes,
                                            std::span<const Bigint> witnesses) {
  if (primes.size() == 1) {
    return {witnesses[0], primes[0]};
  }
  std::size_t mid = primes.size() / 2;
  auto [wl, vl] = combine_witnesses(power, primes.subspan(0, mid), witnesses.subspan(0, mid));
  auto [wr, vr] = combine_witnesses(power, primes.subspan(mid), witnesses.subspan(mid));
  Bigint gcd, s, t;
  Bigint::gcd_ext(vl, vr, gcd, s, t);  // s·vl + t·vr = 1
  if (!gcd.is_one()) {
    throw CryptoError("aggregate_membership_witnesses: primes are not coprime");
  }
  // wl^t · wr^s = g^(u·(t·vr + s·vl)/(vl·vr)) = g^(u/(vl·vr)); one of the
  // coefficients is negative, which pow() serves via inversion mod n.
  Bigint w = power.mul(power.pow(wl, t), power.pow(wr, s));
  return {std::move(w), vl * vr};
}

}  // namespace

Bigint aggregate_membership_witnesses(const AccumulatorContext& ctx,
                                      std::span<const Bigint> primes,
                                      std::span<const Bigint> witnesses) {
  if (primes.empty() || primes.size() != witnesses.size()) {
    throw UsageError("aggregate_membership_witnesses: need matching non-empty spans");
  }
  return combine_witnesses(ctx.power(), primes, witnesses).first;
}

void NonmembershipWitness::write(ByteWriter& w) const {
  a.write(w);
  d.write(w);
}

NonmembershipWitness NonmembershipWitness::read(ByteReader& r) {
  Bigint a = Bigint::read(r);
  Bigint d = Bigint::read(r);
  return NonmembershipWitness{std::move(a), std::move(d)};
}

std::size_t NonmembershipWitness::encoded_size() const {
  return a.encoded_size() + d.encoded_size();
}

NonmembershipWitness nonmembership_witness(const AccumulatorContext& ctx,
                                           std::span<const Bigint> set_primes,
                                           std::span<const Bigint> outsiders) {
  const PowerContext& power = ctx.power();
  if (outsiders.empty()) {
    // v = 1: a = 0, b = 1, d = g^{-1}.  c^0 = 1 = g^{-1}·g.
    return NonmembershipWitness{Bigint(0), power.inv(ctx.g())};
  }
  Bigint v = Bigint::product(outsiders);

  if (power.has_trapdoor()) {
    // Owner path: u never needs to exist in full.  a = u^{-1} mod v needs
    // u mod v; b = (1 - a·u)/v only enters as an exponent of g, so b mod
    // φ(n) suffices, computable from u mod v·φ(n):
    //   t = 1 - a·u ≡ t̄ (mod v·φ),  v | t̄,  b mod φ = t̄ / v  (mod φ).
    const Bigint& phi = power.phi();
    Bigint v_phi = v * phi;
    Bigint u_mod_v(1), u_mod_vphi(1);
    for (const Bigint& x : set_primes) {
      u_mod_v = Bigint::mod(u_mod_v * x, v);
      u_mod_vphi = Bigint::mod(u_mod_vphi * x, v_phi);
    }
    if (!Bigint::gcd(u_mod_v, v).is_one()) {
      throw CryptoError("nonmembership: sets are not coprime (element present)");
    }
    Bigint a = Bigint::invert_mod(u_mod_v, v);
    Bigint t = Bigint::mod(Bigint(1) - a * u_mod_vphi, v_phi);
    Bigint b_mod_phi = Bigint::mod(Bigint::div_exact(t, v), phi);
    Bigint d = power.pow(ctx.g(), phi - b_mod_phi);  // g^{-b}
    return NonmembershipWitness{std::move(a), std::move(d)};
  }

  // Cloud path: full extended gcd over the integer product (Fig 2's cost).
  Bigint u = Bigint::product(set_primes);
  Bigint gcd, a, b;
  Bigint::gcd_ext(u, v, gcd, a, b);
  if (!gcd.is_one()) {
    throw CryptoError("nonmembership: sets are not coprime (element present)");
  }
  Bigint d = power.pow(ctx.g(), -b);
  return NonmembershipWitness{std::move(a), std::move(d)};
}

bool verify_nonmembership(const AccumulatorContext& ctx, const Bigint& c,
                          const NonmembershipWitness& w, std::span<const Bigint> outsiders) {
  VerifyBatch batch(ctx);
  batch.add_nonmembership(c, w, outsiders, "nonmembership witness invalid");
  return batch.holds();
}

}  // namespace vc
