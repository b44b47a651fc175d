#include "bigint/power_context.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {

// Table-effectiveness counters: a "hit" is an exponentiation served by the
// BGMW table, a "miss" found a table for the base but fell back to plain
// powm (exponent too wide or too short to profit).  Base-less
// exponentiations are counted separately so utilization is hits / total.
obs::Counter& fixed_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_fixedbase_total", "result=\"hit\"", "Fixed-base table outcomes per exponentiation");
  return c;
}
obs::Counter& fixed_misses() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vc_fixedbase_total", "result=\"miss\"");
  return c;
}
obs::Counter& pow_calls() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pow_total", "", "Modular exponentiations through PowerContext");
  return c;
}

}  // namespace

// --- fixed-base tables -------------------------------------------------------
//
// One sub-table per residue ring the exponentiation runs in: a single table
// mod n on the public side, tables mod p and mod q on the trapdoor side
// (whose exponents arrive already reduced mod p-1 / q-1).  Sub-table i
// stores powers[j] = base^(2^(window·j)) mod `mod`; the BGMW bucket scan in
// eval_fixed combines them, squaring only to join digit columns when the
// exponent is narrow enough to profit from a smaller digit width.
namespace {

struct FixedSub {
  Bigint mod;
  std::size_t window = 0;         // digit width w in bits
  std::size_t capacity_bits = 0;  // widest exponent the table serves
  std::vector<Bigint> powers;     // ceil(capacity/window) entries
};

}  // namespace

struct PowerContext::FixedBase {
  Bigint base;
  std::vector<FixedSub> subs;  // public: {n}; trapdoor: {p, q}
};

namespace {

// Memory/build-time backstop: a table for a 2M-bit exponent capacity is
// ~180k modulus-sized entries (tens of MB) and 2M squarings to build; past
// that the generic powm path is the better deal anyway.
constexpr std::size_t kMaxFixedCapacityBits = 2'000'000;

std::size_t pick_window(std::size_t capacity_bits) {
  // Per-exponentiation cost ≈ capacity/w bucket mults + 2^w scan mults.
  std::size_t best_w = 2;
  double best_cost = 1e300;
  for (std::size_t w = 2; w <= 12; ++w) {
    double cost = static_cast<double>(capacity_bits) / static_cast<double>(w) +
                  static_cast<double>(std::size_t{1} << w);
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

FixedSub build_sub(const Bigint& base, const Bigint& mod, std::size_t capacity_bits) {
  FixedSub sub;
  sub.mod = mod;
  sub.capacity_bits = std::max<std::size_t>(1, std::min(capacity_bits, kMaxFixedCapacityBits));
  sub.window = pick_window(sub.capacity_bits);
  std::size_t entries = (sub.capacity_bits + sub.window - 1) / sub.window;
  sub.powers.reserve(entries);
  sub.powers.push_back(Bigint::mod(base, mod));
  for (std::size_t i = 1; i < entries; ++i) {
    // powers[i] = powers[i-1]^(2^window): `window` squarings via one powm.
    sub.powers.push_back(
        Bigint::pow_mod(sub.powers.back(), Bigint(long{1} << sub.window), mod));
  }
  return sub;
}

// Per-call digit width.  Sub-table powers are spaced W = sub.window bits
// apart, which suits exponents near the table's capacity.  A narrower
// exponent splits each W-bit table digit e_i into s = ceil(W/v) columns of
// v bits, e_i = Σ_c e_{i,c}·2^(v·c), so that
//   base^e = Π_c (Π_i powers[i]^(e_{i,c}))^(2^(v·c)),
// one 2^v-bucket scan per column joined Horner-style by (s-1)·v squarings:
//   cost(v) = digits·s + s·2^v + (s-1)·v   multiplications.
// v = W is the single-column scan (digits + 2^W).  Returns the cheapest v
// (the widest on ties), or 0 when no v beats a generic powm.  A table
// multiplication (plain mul + remainder) costs at least one powm bit (GMP
// squares in Montgomery form), so the break-even in BM_FixedBasePow sits
// near 64-bit exponents, where a plan needs about one multiplication per
// bit; the 0.9 keeps the table off that knife edge.
std::size_t fixed_digit_width(const FixedSub& sub, std::size_t exp_bits) {
  if (exp_bits == 0 || exp_bits > sub.capacity_bits) return 0;
  const std::size_t w = sub.window;
  const double digits = static_cast<double>((exp_bits + w - 1) / w);
  std::size_t best_v = 0;
  double best_cost = 0.9 * static_cast<double>(exp_bits);
  for (std::size_t v = w; v >= 1; --v) {
    const double s = static_cast<double>((w + v - 1) / v);
    const double cost = digits * s + s * static_cast<double>(std::size_t{1} << v) +
                        (s - 1) * static_cast<double>(v);
    if (cost < best_cost) {
      best_cost = cost;
      best_v = v;
    }
  }
  return best_v;
}

// Bits [pos, pos+width) of |z| (width <= 32); limbs past the top read as 0.
std::uint32_t bits_at(mpz_srcptr z, std::size_t pos, std::size_t width) {
  constexpr std::size_t kLimbBits = GMP_NUMB_BITS;
  const auto limb = static_cast<mp_size_t>(pos / kLimbBits);
  const std::size_t shift = pos % kLimbBits;
  mp_limb_t v = mpz_getlimbn(z, limb) >> shift;
  if (shift + width > kLimbBits) v |= mpz_getlimbn(z, limb + 1) << (kLimbBits - shift);
  return static_cast<std::uint32_t>(v & ((mp_limb_t{1} << width) - 1));
}

// BGMW bucket evaluation at digit width v (see above).  Within one column,
// digit positions are grouped by digit value d and
//   column = Π_d (Π_{i: e_{i,c} = d} powers[i])^d
// is computed with the running-product trick (B accumulates the buckets
// from the largest d downward, A accumulates B once per d): (#nonzero
// digits + max digit) multiplications, zero squarings.  All products run in
// place through one scratch value.
Bigint eval_fixed(const FixedSub& sub, const Bigint& exp, std::size_t v) {
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return Bigint(1);
  const std::size_t w = sub.window;
  const std::size_t digits = (bits + w - 1) / w;
  const std::size_t columns = (w + v - 1) / v;
  std::vector<std::uint32_t> digit(digits);
  for (std::size_t i = 0; i < digits; ++i) digit[i] = bits_at(exp.raw(), i * w, w);

  mpz_srcptr mod = sub.mod.raw();
  Bigint scratch;
  auto mul_into = [&](Bigint& acc, const Bigint& x) {
    mpz_mul(scratch.raw_mut(), acc.raw(), x.raw());
    mpz_tdiv_r(acc.raw_mut(), scratch.raw(), mod);
  };

  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  const std::uint32_t mask = (std::uint32_t{1} << v) - 1;
  std::vector<std::uint32_t> head(std::size_t{1} << v);
  std::vector<std::uint32_t> next(digits);
  Bigint result(1), a, b;
  for (std::size_t c = columns; c-- > 0;) {
    for (std::size_t k = 0; c + 1 < columns && k < v; ++k) mul_into(result, result);
    std::fill(head.begin(), head.end(), kEmpty);
    std::uint32_t max_digit = 0;
    for (std::size_t i = 0; i < digits; ++i) {
      const std::uint32_t d = (digit[i] >> (c * v)) & mask;
      if (d == 0) continue;
      next[i] = head[d];
      head[d] = static_cast<std::uint32_t>(i);
      max_digit = std::max(max_digit, d);
    }
    mpz_set_ui(a.raw_mut(), 1);
    mpz_set_ui(b.raw_mut(), 1);
    for (std::uint32_t d = max_digit; d >= 1; --d) {
      for (std::uint32_t j = head[d]; j != kEmpty; j = next[j]) mul_into(b, sub.powers[j]);
      mul_into(a, b);
    }
    mul_into(result, a);
  }
  return result;
}

}  // namespace

PowerContext::PowerContext(Bigint n) : n_(std::move(n)) {
  if (n_ < Bigint(2)) throw UsageError("PowerContext: modulus must be >= 2");
}

PowerContext::PowerContext(Bigint n, Bigint p, Bigint q) : n_(std::move(n)) {
  if (!(p * q == n_)) throw UsageError("PowerContext: p*q != n");
  Trapdoor t{.p = std::move(p),
             .q = std::move(q),
             .phi = Bigint(),
             .p_minus_1 = Bigint(),
             .q_minus_1 = Bigint(),
             .q_inv_mod_p = Bigint()};
  t.p_minus_1 = t.p - Bigint(1);
  t.q_minus_1 = t.q - Bigint(1);
  t.phi = t.p_minus_1 * t.q_minus_1;
  t.q_inv_mod_p = Bigint::invert_mod(t.q, t.p);
  trapdoor_ = std::move(t);
}

const Bigint& PowerContext::phi() const {
  if (!trapdoor_) throw UsageError("PowerContext: phi() requires the trapdoor");
  return trapdoor_->phi;
}

void PowerContext::prepare_fixed_base(const Bigint& base, std::size_t max_exp_bits) {
  auto fixed = std::make_shared<FixedBase>();
  fixed->base = base;
  if (trapdoor_) {
    // Exponents are reduced mod p-1 / q-1 before the table is consulted.
    fixed->subs.push_back(build_sub(base, trapdoor_->p, trapdoor_->p.bit_length()));
    fixed->subs.push_back(build_sub(base, trapdoor_->q, trapdoor_->q.bit_length()));
  } else {
    fixed->subs.push_back(build_sub(base, n_, max_exp_bits));
  }
  fixed_ = std::move(fixed);
}

bool PowerContext::fixed_base_matches(const Bigint& base) const {
  return fixed_ != nullptr && fixed_->base == base;
}

std::size_t PowerContext::fixed_base_capacity_bits() const {
  if (fixed_ == nullptr) return 0;
  if (trapdoor_) return static_cast<std::size_t>(-1);
  return fixed_->subs[0].capacity_bits;
}

std::optional<FixedBaseSnapshot> PowerContext::export_fixed_base() const {
  if (fixed_ == nullptr || trapdoor_) return std::nullopt;
  const FixedSub& sub = fixed_->subs[0];
  FixedBaseSnapshot out;
  out.base = fixed_->base;
  out.window = sub.window;
  out.capacity_bits = sub.capacity_bits;
  out.powers = sub.powers;
  return out;
}

void PowerContext::import_fixed_base(const FixedBaseSnapshot& snap) {
  if (trapdoor_) {
    throw UsageError("import_fixed_base: trapdoor-side tables are never persisted");
  }
  if (snap.window < 2 || snap.window > 12 || snap.capacity_bits == 0 ||
      snap.capacity_bits > kMaxFixedCapacityBits) {
    throw UsageError("import_fixed_base: window/capacity out of range");
  }
  std::size_t entries = (snap.capacity_bits + snap.window - 1) / snap.window;
  if (snap.powers.size() != entries) {
    throw UsageError("import_fixed_base: entry count does not match window/capacity");
  }
  if (snap.powers[0] != Bigint::mod(snap.base, n_)) {
    throw UsageError("import_fixed_base: powers[0] != base mod n");
  }
  // Spot-check one chain link; a wrong table only yields proofs the verifier
  // rejects (availability, not soundness), and the store CRCs cover bit rot.
  if (entries > 1 &&
      snap.powers[1] !=
          Bigint::pow_mod(snap.powers[0], Bigint(long{1} << snap.window), n_)) {
    throw UsageError("import_fixed_base: power chain mismatch");
  }
  auto fixed = std::make_shared<FixedBase>();
  fixed->base = snap.base;
  fixed->subs.push_back(FixedSub{.mod = n_,
                                 .window = snap.window,
                                 .capacity_bits = snap.capacity_bits,
                                 .powers = snap.powers});
  fixed_ = std::move(fixed);
}

Bigint PowerContext::pow(const Bigint& base, const Bigint& exp) const {
  // base^-e = (base^e)^-1, so a table for `base` serves both signs.
  if (exp.is_negative()) return inv(pow(base, -exp));
  pow_calls().inc();
  if (!trapdoor_) {
    if (fixed_base_matches(base)) {
      const FixedSub& sub = fixed_->subs[0];
      if (std::size_t v = fixed_digit_width(sub, exp.bit_length())) {
        fixed_hits().inc();
        return eval_fixed(sub, exp, v);
      }
      fixed_misses().inc();
    }
    return Bigint::pow_mod(base, exp, n_);
  }
  const Trapdoor& t = *trapdoor_;
  // Reduce the exponent per prime factor, exponentiate mod p and mod q,
  // recombine with Garner's formula:
  //   m = m_q + q * ((m_p - m_q) * q^{-1} mod p)
  Bigint ep = Bigint::mod(exp, t.p_minus_1);
  Bigint eq = Bigint::mod(exp, t.q_minus_1);
  Bigint mp, mq;
  if (fixed_base_matches(base)) {
    std::size_t vp = fixed_digit_width(fixed_->subs[0], ep.bit_length());
    std::size_t vq = fixed_digit_width(fixed_->subs[1], eq.bit_length());
    (vp != 0 && vq != 0 ? fixed_hits() : fixed_misses()).inc();
    mp = vp != 0 ? eval_fixed(fixed_->subs[0], ep, vp)
                 : Bigint::pow_mod(Bigint::mod(base, t.p), ep, t.p);
    mq = vq != 0 ? eval_fixed(fixed_->subs[1], eq, vq)
                 : Bigint::pow_mod(Bigint::mod(base, t.q), eq, t.q);
  } else {
    mp = Bigint::pow_mod(Bigint::mod(base, t.p), ep, t.p);
    mq = Bigint::pow_mod(Bigint::mod(base, t.q), eq, t.q);
  }
  Bigint h = Bigint::mod((mp - mq) * t.q_inv_mod_p, t.p);
  return mq + t.q * h;
}

}  // namespace vc
