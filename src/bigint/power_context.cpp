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
// Time of the table-served exponentiations (the hits): a histogram-only
// stage, since a traced span per exponentiation would swamp a trace.
obs::Histogram& fixed_pow_stage() {
  static obs::Histogram& h = obs::MetricsRegistry::global().stage("fixed_base_pow");
  return h;
}

}  // namespace

// --- Montgomery arithmetic ----------------------------------------------------
//
// Montgomery arithmetic on raw limbs mod an odd m of N limbs, R = 2^(64N).
// A residue x is held as the N-limb value x·R mod m, kept below R but not
// necessarily below m: for inputs below R, word-by-word REDC of their
// product returns a value below R again, so only from_mont() reduces fully.
//
// MontModulus holds what depends on m alone (its limbs, -m^-1 mod 2^64 and
// R^2 mod m), so a fixed-base table keeps one beside its powers and shares it
// across threads; Montgomery adds the per-call product scratch.
namespace {

struct MontModulus {
  explicit MontModulus(const Bigint& m)
      : n(mpz_size(m.raw())), limbs(mpz_limbs_read(m.raw()), mpz_limbs_read(m.raw()) + n),
        r2(n), mod(m) {
    if (!m.is_odd()) throw UsageError("PowerContext: Montgomery form needs an odd modulus");
    // -m^-1 mod 2^64 by Newton's iteration: an odd m0 is its own inverse
    // mod 8, and each step doubles the correct low bits (3 -> 96).
    const mp_limb_t m0 = limbs[0];
    mp_limb_t inv = m0;
    for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
    minv = 0 - inv;
    Bigint r2_value;
    mpz_setbit(r2_value.raw_mut(), 2 * GMP_NUMB_BITS * n);
    mpz_tdiv_r(r2_value.raw_mut(), r2_value.raw(), m.raw());
    copy_padded(r2.data(), r2_value.raw());
  }

  // The N-limb image of 0 <= z < R.
  void copy_padded(mp_limb_t* out, mpz_srcptr z) const {
    const std::size_t size = mpz_size(z);
    std::copy(mpz_limbs_read(z), mpz_limbs_read(z) + size, out);
    std::fill(out + size, out + n, 0);
  }

  std::size_t n;
  std::vector<mp_limb_t> limbs;
  std::vector<mp_limb_t> r2;  // R^2 mod m
  mp_limb_t minv = 0;         // -m^-1 mod 2^64
  Bigint mod;
};

class Montgomery {
 public:
  explicit Montgomery(const MontModulus& m) : m_(m), t_(2 * m.n) {}

  [[nodiscard]] std::size_t limbs() const { return m_.n; }

  // out = a·b·R^-1 mod m; out may alias a or b.
  void mul(mp_limb_t* out, const mp_limb_t* a, const mp_limb_t* b) {
    if (a == b) {
      mpn_sqr(t_.data(), a, static_cast<mp_size_t>(m_.n));
    } else {
      mpn_mul_n(t_.data(), a, b, static_cast<mp_size_t>(m_.n));
    }
    redc(out);
  }

  // out = (x mod m)·R mod m.
  void to_mont(mp_limb_t* out, const Bigint& x) {
    const std::size_t n = m_.n;
    Bigint reduced;
    mpz_srcptr src = x.raw();
    // m's top limb is nonzero, so a value of fewer limbs is below it.
    if (mpz_sgn(src) < 0 || mpz_size(src) > n ||
        (mpz_size(src) == n &&
         mpn_cmp(mpz_limbs_read(src), m_.limbs.data(), static_cast<mp_size_t>(n)) >= 0)) {
      mpz_mod(reduced.raw_mut(), src, m_.mod.raw());
      src = reduced.raw();
    }
    m_.copy_padded(out, src);
    mul(out, out, m_.r2.data());
  }

  // The canonical residue in [0, m) of a Montgomery-form value.
  [[nodiscard]] Bigint from_mont(const mp_limb_t* a) {
    const std::size_t n = m_.n;
    const auto size = static_cast<mp_size_t>(n);
    std::copy(a, a + n, t_.begin());
    std::fill(t_.begin() + static_cast<std::ptrdiff_t>(n), t_.end(), 0);
    Bigint r;
    mp_limb_t* out = mpz_limbs_write(r.raw_mut(), size);
    redc(out);  // a < R, so the result is at most m
    if (mpn_cmp(out, m_.limbs.data(), size) >= 0) mpn_sub_n(out, out, m_.limbs.data(), size);
    mpz_limbs_finish(r.raw_mut(), size);
    return r;
  }

 private:
  // out = t_·R^-1 mod m for the 2N-limb t_ (clobbered), below R whenever
  // t_ < R^2.  Step i adds the multiple of m that clears limb i and parks the
  // step's carry in that cleared limb, so one final addition folds all the
  // carries in (the layout of GMP's redc_1); the sum is below R + m, so one
  // conditional subtraction brings it below R.
  void redc(mp_limb_t* out) {
    mp_limb_t* t = t_.data();
    const std::size_t n = m_.n;
    const auto size = static_cast<mp_size_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = mpn_addmul_1(t + i, m_.limbs.data(), size, t[i] * m_.minv);
    }
    if (mpn_add_n(out, t + n, t, size) != 0) mpn_sub_n(out, out, m_.limbs.data(), size);
  }

  const MontModulus& m_;
  std::vector<mp_limb_t> t_;  // 2N-limb product scratch
};

// Bits [pos, pos+width) of |z| (width <= 32); limbs past the top read as 0.
std::uint32_t bits_at(mpz_srcptr z, std::size_t pos, std::size_t width) {
  constexpr std::size_t kLimbBits = GMP_NUMB_BITS;
  const auto limb = static_cast<mp_size_t>(pos / kLimbBits);
  const std::size_t shift = pos % kLimbBits;
  mp_limb_t v = mpz_getlimbn(z, limb) >> shift;
  if (shift + width > kLimbBits) v |= mpz_getlimbn(z, limb + 1) << (kLimbBits - shift);
  return static_cast<std::uint32_t>(v & ((mp_limb_t{1} << width) - 1));
}

// --- fixed-base tables -------------------------------------------------------
//
// One sub-table per residue ring the exponentiation runs in: a single table
// mod n on the public side, tables mod p and mod q on the trapdoor side
// (whose exponents arrive already reduced mod p-1 / q-1).  Sub-table i
// stores powers[j] = base^(2^(window·j)) mod `mod` in Montgomery form, one
// flat run of limbs; the BGMW bucket scan in eval_fixed combines them,
// squaring only to join digit columns when the exponent is narrow enough to
// profit from a smaller digit width.

struct FixedSub {
  MontModulus mod;
  std::size_t window = 0;         // digit width w in bits
  std::size_t capacity_bits = 0;  // widest exponent the table serves
  std::vector<mp_limb_t> powers;  // ceil(capacity/window) entries of mod.n limbs

  [[nodiscard]] std::size_t entries() const { return powers.size() / mod.n; }
  [[nodiscard]] const mp_limb_t* power(std::size_t j) const { return powers.data() + j * mod.n; }
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

std::size_t table_entries(std::size_t capacity_bits, std::size_t window) {
  return (capacity_bits + window - 1) / window;
}

FixedSub build_sub(const Bigint& base, const Bigint& mod, std::size_t capacity_bits) {
  FixedSub sub{.mod = MontModulus(mod), .window = 0, .capacity_bits = 0, .powers = {}};
  sub.capacity_bits = std::max<std::size_t>(1, std::min(capacity_bits, kMaxFixedCapacityBits));
  sub.window = pick_window(sub.capacity_bits);
  const std::size_t n = sub.mod.n;
  sub.powers.resize(table_entries(sub.capacity_bits, sub.window) * n);
  Montgomery mont(sub.mod);
  mont.to_mont(sub.powers.data(), base);
  for (std::size_t j = 1; j < sub.entries(); ++j) {
    // powers[j] = powers[j-1]^(2^window): `window` squarings.
    mp_limb_t* out = sub.powers.data() + j * n;
    std::copy(sub.power(j - 1), sub.power(j - 1) + n, out);
    for (std::size_t k = 0; k < sub.window; ++k) mont.mul(out, out, out);
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
// multiplication is one Montgomery product, as are powm's, but powm pays a
// squaring per bit plus its window multiplications: fitted against
// BM_FixedBasePow-style timings (512- and 1024-bit moduli, 16-25,600-bit
// exponents), one powm bit costs 1.1-1.5 table multiplications for
// exponents of 48-1,024 bits, and the two paths tie near 32 bits, where a
// plan needs about 1.2 multiplications per bit.
std::size_t fixed_digit_width(const FixedSub& sub, std::size_t exp_bits) {
  if (exp_bits == 0 || exp_bits > sub.capacity_bits) return 0;
  const std::size_t w = sub.window;
  const double digits = static_cast<double>((exp_bits + w - 1) / w);
  std::size_t best_v = 0;
  double best_cost = 1.2 * static_cast<double>(exp_bits);
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

// BGMW bucket evaluation at digit width v (see above).  Within one column,
// digit positions are grouped by digit value d and
//   column = Π_d (Π_{i: e_{i,c} = d} powers[i])^d
// is computed with the running-product trick (B accumulates the buckets
// from the largest d downward, A accumulates B once per d): (#nonzero
// digits + max digit) multiplications, zero squarings.  Accumulators that
// still hold 1 take their first factor by copy, so 1 never needs a
// Montgomery image.
Bigint eval_fixed(const FixedSub& sub, const Bigint& exp, std::size_t v) {
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return Bigint(1);
  const std::size_t w = sub.window;
  const std::size_t digits = (bits + w - 1) / w;
  const std::size_t columns = (w + v - 1) / v;
  std::vector<std::uint32_t> digit(digits);
  for (std::size_t i = 0; i < digits; ++i) digit[i] = bits_at(exp.raw(), i * w, w);

  Montgomery mont(sub.mod);
  const std::size_t n = mont.limbs();
  std::vector<mp_limb_t> scratch(3 * n);
  mp_limb_t* result = scratch.data();
  mp_limb_t* a = result + n;
  mp_limb_t* b = a + n;
  bool result_one = true;
  auto mul_into = [&](mp_limb_t* acc, bool& one, const mp_limb_t* x) {
    if (one) {
      std::copy(x, x + n, acc);
      one = false;
    } else {
      mont.mul(acc, acc, x);
    }
  };

  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  const std::uint32_t mask = (std::uint32_t{1} << v) - 1;
  std::vector<std::uint32_t> head(std::size_t{1} << v);
  std::vector<std::uint32_t> next(digits);
  for (std::size_t c = columns; c-- > 0;) {
    for (std::size_t k = 0; !result_one && c + 1 < columns && k < v; ++k) {
      mont.mul(result, result, result);
    }
    std::fill(head.begin(), head.end(), kEmpty);
    std::uint32_t max_digit = 0;
    for (std::size_t i = 0; i < digits; ++i) {
      const std::uint32_t d = (digit[i] >> (c * v)) & mask;
      if (d == 0) continue;
      next[i] = head[d];
      head[d] = static_cast<std::uint32_t>(i);
      max_digit = std::max(max_digit, d);
    }
    if (max_digit == 0) continue;
    bool a_one = true;
    bool b_one = true;
    for (std::uint32_t d = max_digit; d >= 1; --d) {
      for (std::uint32_t j = head[d]; j != kEmpty; j = next[j]) mul_into(b, b_one, sub.power(j));
      mul_into(a, a_one, b);
    }
    mul_into(result, result_one, a);
  }
  return mont.from_mont(result);
}

// --- multi-exponentiation ------------------------------------------------------

// Sliding-window width for one base of a Straus evaluation: its table holds
// the 2^(w-1) odd powers (one squaring and 2^(w-1) - 1 multiplications to
// build), and its exponent then costs about bits/(w+1) multiplications.
unsigned straus_window(std::size_t bits) {
  unsigned best_w = 1;
  double best_cost = static_cast<double>(bits) / 2;
  for (unsigned w = 2; w <= 7; ++w) {
    const double cost = static_cast<double>(1u << (w - 1)) +
                        static_cast<double>(bits) / static_cast<double>(w + 1);
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

// Π bases[i]^exps[i] mod the odd m, exps >= 0.  Every exponent is recoded
// into sliding windows, each an event "multiply by the odd power v at bit
// position pos"; events are grouped by position, and one scan from the top
// bit squares the accumulator once per position and applies the position's
// events.
Bigint straus(const Bigint& m, std::span<const Bigint> bases, std::span<const Bigint> exps) {
  const MontModulus modulus(m);
  Montgomery mont(modulus);
  const std::size_t n = mont.limbs();
  struct Term {
    const Bigint* base;
    mpz_srcptr exp;
    std::size_t bits;
    unsigned window;
    std::size_t table;  // limb offset of its odd powers
  };
  std::vector<Term> terms;
  std::size_t table_limbs = 0;
  std::size_t top = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::size_t bits = exps[i].bit_length();
    if (bits == 0) continue;
    const unsigned w = straus_window(bits);
    terms.push_back(Term{&bases[i], exps[i].raw(), bits, w, table_limbs});
    table_limbs += (std::size_t{1} << (w - 1)) * n;
    top = std::max(top, bits);
  }
  if (terms.empty()) return Bigint(1);

  std::vector<mp_limb_t> table(table_limbs);
  std::vector<mp_limb_t> square(n);
  for (const Term& term : terms) {
    mp_limb_t* odd = table.data() + term.table;
    mont.to_mont(odd, *term.base);
    if (term.window == 1) continue;
    mont.mul(square.data(), odd, odd);
    for (std::size_t j = 1; j < (std::size_t{1} << (term.window - 1)); ++j) {
      mont.mul(odd + j * n, odd + (j - 1) * n, square.data());
    }
  }

  struct Event {
    std::size_t pos;    // bit position the window ends at (its lowest bit)
    std::size_t power;  // limb offset of the odd power to multiply in
  };
  std::vector<Event> events;
  for (const Term& term : terms) {
    const mp_limb_t* e = mpz_limbs_read(term.exp);
    std::size_t j = term.bits;  // bits [0, j) are still to recode
    while (j > 0) {
      if (((e[(j - 1) / GMP_NUMB_BITS] >> ((j - 1) % GMP_NUMB_BITS)) & 1) == 0) {
        --j;
        continue;
      }
      const std::size_t lo = j > term.window ? j - term.window : 0;
      std::uint32_t v = bits_at(term.exp, lo, j - lo);
      const auto zeros = static_cast<std::size_t>(__builtin_ctz(v));
      v >>= zeros;
      j = lo + zeros;
      events.push_back(Event{j, term.table + (v >> 1) * n});
    }
  }
  // Counting sort by position, so the scan below reads the powers it
  // multiplies in from one contiguous run per position.
  std::vector<std::size_t> first(top + 1, 0);
  for (const Event& ev : events) ++first[ev.pos + 1];
  for (std::size_t pos = 0; pos < top; ++pos) first[pos + 1] += first[pos];
  std::vector<std::size_t> powers(events.size());
  {
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (const Event& ev : events) powers[fill[ev.pos]++] = ev.power;
  }

  std::vector<mp_limb_t> acc(n);
  bool one = true;
  for (std::size_t pos = top; pos-- > 0;) {
    if (!one) mont.mul(acc.data(), acc.data(), acc.data());
    for (std::size_t k = first[pos]; k < first[pos + 1]; ++k) {
      const mp_limb_t* power = table.data() + powers[k];
      if (one) {
        std::copy(power, power + n, acc.begin());
        one = false;
      } else {
        mont.mul(acc.data(), acc.data(), power);
      }
    }
  }
  return one ? Bigint(1) : mont.from_mont(acc.data());
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
  out.powers.reserve(sub.entries());
  Montgomery mont(sub.mod);
  for (std::size_t j = 0; j < sub.entries(); ++j) {
    out.powers.push_back(mont.from_mont(sub.power(j)));
  }
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
  const std::size_t entries = table_entries(snap.capacity_bits, snap.window);
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
  // Entries are canonical residues, so the exported image is the one read.
  if (std::any_of(snap.powers.begin(), snap.powers.end(),
                  [&](const Bigint& p) { return p.is_negative() || !(p < n_); })) {
    throw UsageError("import_fixed_base: entry outside [0, n)");
  }
  FixedSub sub{.mod = MontModulus(n_),
               .window = snap.window,
               .capacity_bits = snap.capacity_bits,
               .powers = {}};
  sub.powers.resize(entries * sub.mod.n);
  Montgomery mont(sub.mod);
  for (std::size_t j = 0; j < entries; ++j) {
    mont.to_mont(sub.powers.data() + j * sub.mod.n, snap.powers[j]);
  }
  auto fixed = std::make_shared<FixedBase>();
  fixed->base = snap.base;
  fixed->subs.push_back(std::move(sub));
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
        obs::Span span(fixed_pow_stage());
        return eval_fixed(sub, exp, v);
      }
      fixed_misses().inc();
    }
    return Bigint::pow_mod(base, exp, n_);
  }
  const Trapdoor& t = *trapdoor_;
  // Reduce the exponent per prime factor, exponentiate mod p and mod q,
  // recombine with Garner's formula.
  Bigint ep = Bigint::mod(exp, t.p_minus_1);
  Bigint eq = Bigint::mod(exp, t.q_minus_1);
  if (fixed_base_matches(base)) {
    const std::size_t vp = fixed_digit_width(fixed_->subs[0], ep.bit_length());
    const std::size_t vq = fixed_digit_width(fixed_->subs[1], eq.bit_length());
    if (vp != 0 && vq != 0) {
      fixed_hits().inc();
      obs::Span span(fixed_pow_stage());
      return crt_combine(eval_fixed(fixed_->subs[0], ep, vp), eval_fixed(fixed_->subs[1], eq, vq));
    }
    fixed_misses().inc();
  }
  return crt_combine(Bigint::pow_mod(Bigint::mod(base, t.p), ep, t.p),
                     Bigint::pow_mod(Bigint::mod(base, t.q), eq, t.q));
}

Bigint PowerContext::multi_pow(std::span<const Bigint> bases,
                               std::span<const Bigint> exps) const {
  if (bases.size() != exps.size()) {
    throw UsageError("multi_pow: bases and exponents differ in count");
  }
  if (std::any_of(exps.begin(), exps.end(), [](const Bigint& e) { return e.is_negative(); })) {
    throw UsageError("multi_pow: negative exponent");
  }
  if (!n_.is_odd()) throw UsageError("multi_pow: Montgomery form needs an odd modulus");
  pow_calls().inc();
  if (!trapdoor_) return straus(n_, bases, exps);
  const Trapdoor& t = *trapdoor_;
  std::vector<Bigint> ep, eq;
  ep.reserve(exps.size());
  eq.reserve(exps.size());
  for (const Bigint& e : exps) {
    ep.push_back(Bigint::mod(e, t.p_minus_1));
    eq.push_back(Bigint::mod(e, t.q_minus_1));
  }
  return crt_combine(straus(t.p, bases, ep), straus(t.q, bases, eq));
}

// Garner's formula: m = m_q + q * ((m_p - m_q) * q^{-1} mod p).
Bigint PowerContext::crt_combine(const Bigint& mp, const Bigint& mq) const {
  const Trapdoor& t = *trapdoor_;
  Bigint h = Bigint::mod((mp - mq) * t.q_inv_mod_p, t.p);
  return mq + t.q * h;
}

}  // namespace vc
