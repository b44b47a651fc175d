#include <gtest/gtest.h>

#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/miller_rabin.hpp"
#include "bigint/power_context.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

TEST(Bigint, U64Roundtrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 1ULL << 32, ~0ULL}) {
    Bigint b = Bigint::from_u64(v);
    EXPECT_TRUE(b.fits_u64());
    EXPECT_EQ(b.to_u64(), v);
  }
}

TEST(Bigint, DecimalRoundtrip) {
  const char* s = "123456789012345678901234567890123456789";
  Bigint b = Bigint::from_decimal(s);
  EXPECT_EQ(b.to_decimal(), s);
  EXPECT_FALSE(b.fits_u64());
  EXPECT_THROW(b.to_u64(), UsageError);
  EXPECT_THROW(Bigint::from_decimal("12x"), ParseError);
}

TEST(Bigint, NegativeDecimal) {
  Bigint b = Bigint::from_decimal("-42");
  EXPECT_TRUE(b.is_negative());
  EXPECT_EQ((-b).to_u64(), 42u);
}

TEST(Bigint, BytesRoundtripBigEndian) {
  Bytes be = {0x01, 0x00, 0xFF};
  Bigint b = Bigint::from_bytes(be);
  EXPECT_EQ(b.to_u64(), 0x0100FFu);
  EXPECT_EQ(b.to_bytes(), be);
  EXPECT_TRUE(Bigint::from_bytes({}).is_zero());
  EXPECT_TRUE(Bigint(0).to_bytes().empty());
}

TEST(Bigint, ArithmeticBasics) {
  Bigint a(100), b(7);
  EXPECT_EQ((a + b).to_u64(), 107u);
  EXPECT_EQ((a - b).to_u64(), 93u);
  EXPECT_EQ((a * b).to_u64(), 700u);
  EXPECT_EQ((a / b).to_u64(), 14u);
  EXPECT_EQ((a % b).to_u64(), 2u);
  EXPECT_THROW(a / Bigint(0), UsageError);
  EXPECT_THROW(a % Bigint(0), UsageError);
}

TEST(Bigint, CompoundOps) {
  Bigint a(10);
  a += Bigint(5);
  a *= Bigint(3);
  a -= Bigint(1);
  EXPECT_EQ(a.to_u64(), 44u);
}

TEST(Bigint, Comparison) {
  EXPECT_LT(Bigint(3), Bigint(5));
  EXPECT_GT(Bigint(-1), Bigint(-2));
  EXPECT_EQ(Bigint(7), Bigint(7));
  EXPECT_EQ(Bigint(7), 7L);
}

TEST(Bigint, BitOps) {
  Bigint b(0b1010);
  EXPECT_EQ(b.bit_length(), 4u);
  EXPECT_TRUE(b.test_bit(1));
  EXPECT_FALSE(b.test_bit(0));
  EXPECT_EQ(Bigint(0).bit_length(), 0u);
}

TEST(Bigint, ModIsNonNegative) {
  EXPECT_EQ(Bigint::mod(Bigint(-7), Bigint(5)).to_u64(), 3u);
  EXPECT_EQ(Bigint::mod(Bigint(7), Bigint(5)).to_u64(), 2u);
  EXPECT_THROW(Bigint::mod(Bigint(1), Bigint(0)), UsageError);
}

TEST(Bigint, PowMod) {
  // 3^20 mod 1000 = 3486784401 mod 1000 = 401
  EXPECT_EQ(Bigint::pow_mod(Bigint(3), Bigint(20), Bigint(1000)).to_u64(), 401u);
  EXPECT_EQ(Bigint::pow_mod(Bigint(5), Bigint(0), Bigint(7)).to_u64(), 1u);
  EXPECT_THROW(Bigint::pow_mod(Bigint(2), Bigint(-1), Bigint(7)), UsageError);
}

TEST(Bigint, InvertMod) {
  Bigint inv = Bigint::invert_mod(Bigint(3), Bigint(7));
  EXPECT_EQ(Bigint::mod(inv * Bigint(3), Bigint(7)).to_u64(), 1u);
  EXPECT_THROW(Bigint::invert_mod(Bigint(2), Bigint(4)), CryptoError);
}

TEST(Bigint, GcdAndExt) {
  EXPECT_EQ(Bigint::gcd(Bigint(12), Bigint(18)).to_u64(), 6u);
  Bigint g, s, t;
  Bigint::gcd_ext(Bigint(240), Bigint(46), g, s, t);
  EXPECT_EQ(g.to_u64(), 2u);
  EXPECT_EQ(s * Bigint(240) + t * Bigint(46), g);
}

TEST(Bigint, Lcm) {
  EXPECT_EQ(Bigint::lcm(Bigint(4), Bigint(6)).to_u64(), 12u);
}

TEST(Bigint, ProductTreeMatchesNaive) {
  DeterministicRng rng(17);
  std::vector<Bigint> xs;
  Bigint naive(1);
  for (int i = 0; i < 137; ++i) {
    Bigint x = Bigint::random_bits(rng, 64) + Bigint(1);
    naive *= x;
    xs.push_back(std::move(x));
  }
  EXPECT_EQ(Bigint::product(xs), naive);
  EXPECT_EQ(Bigint::product({}), Bigint(1));
  EXPECT_EQ(Bigint::product(std::span<const Bigint>(xs.data(), 1)), xs[0]);
}

TEST(Bigint, DivExact) {
  EXPECT_EQ(Bigint::div_exact(Bigint(84), Bigint(7)).to_u64(), 12u);
  EXPECT_THROW(Bigint::div_exact(Bigint(85), Bigint(7)), CryptoError);
  EXPECT_THROW(Bigint::div_exact(Bigint(85), Bigint(0)), UsageError);
}

TEST(Bigint, SerializationRoundtrip) {
  for (const char* s : {"0", "1", "-1", "255", "-12345678901234567890123456789"}) {
    Bigint v = Bigint::from_decimal(s);
    ByteWriter w;
    v.write(w);
    ByteReader r(w.data());
    EXPECT_EQ(Bigint::read(r), v) << s;
    EXPECT_TRUE(r.done());
    EXPECT_EQ(v.encoded_size(), w.size());
  }
}

TEST(Bigint, SerializationRejectsBadSign) {
  Bytes bad = {2, 0};
  ByteReader r(bad);
  EXPECT_THROW(Bigint::read(r), ParseError);
}

TEST(Bigint, RandomBitsWidth) {
  DeterministicRng rng(5);
  for (int i = 0; i < 50; ++i) {
    Bigint b = Bigint::random_bits(rng, 100);
    EXPECT_LE(b.bit_length(), 100u);
  }
  EXPECT_TRUE(Bigint::random_bits(rng, 0).is_zero());
}

TEST(Bigint, RandomBelowInRange) {
  DeterministicRng rng(6);
  Bigint bound = Bigint::from_decimal("1000000000000000000000");
  for (int i = 0; i < 50; ++i) {
    Bigint b = Bigint::random_below(rng, bound);
    EXPECT_LT(b, bound);
    EXPECT_GE(b.sign(), 0);
  }
  EXPECT_THROW(Bigint::random_below(rng, Bigint(0)), UsageError);
}

TEST(MillerRabin, SmallPrimes) {
  DeterministicRng rng(1);
  for (long p : {2L, 3L, 5L, 7L, 11L, 13L, 97L, 251L, 257L, 65537L}) {
    EXPECT_TRUE(is_probable_prime(Bigint(p), rng)) << p;
  }
}

TEST(MillerRabin, SmallComposites) {
  DeterministicRng rng(2);
  for (long c : {0L, 1L, 4L, 9L, 100L, 255L, 1001L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c), rng)) << c;
  }
}

TEST(MillerRabin, CarmichaelNumbers) {
  // Fermat pseudoprimes to every base; Miller-Rabin must still reject them.
  DeterministicRng rng(3);
  for (long c : {561L, 1105L, 1729L, 2465L, 2821L, 6601L, 8911L, 41041L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c), rng)) << c;
  }
}

TEST(MillerRabin, KnownLargePrime) {
  DeterministicRng rng(4);
  // 2^127 - 1 is a Mersenne prime.
  Bigint m127 = Bigint::from_decimal("170141183460469231731687303715884105727");
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 * Bigint(3), rng));
}

TEST(MillerRabin, ProductOfTwoPrimesRejected) {
  DeterministicRng rng(7);
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

TEST(MillerRabin, NextPrimeFrom) {
  DeterministicRng rng(8);
  EXPECT_EQ(next_prime_from(Bigint(14), rng).to_u64(), 17u);
  EXPECT_EQ(next_prime_from(Bigint(17), rng).to_u64(), 17u);
  EXPECT_EQ(next_prime_from(Bigint(0), rng).to_u64(), 2u);
  EXPECT_EQ(next_prime_from(Bigint(90), rng).to_u64(), 97u);
}

TEST(PowerContext, PlainMatchesGmp) {
  PowerContext ctx(Bigint(1009) * Bigint(1013));
  Bigint base(123456), exp(789);
  EXPECT_EQ(ctx.pow(base, exp), Bigint::pow_mod(base, exp, ctx.modulus()));
  EXPECT_FALSE(ctx.has_trapdoor());
  EXPECT_THROW(ctx.phi(), UsageError);
}

TEST(PowerContext, CrtMatchesPlain) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  PowerContext owner(p * q, p, q);
  PowerContext pub(p * q);
  DeterministicRng rng(9);
  for (int i = 0; i < 20; ++i) {
    Bigint base = Bigint::random_below(rng, owner.modulus());
    Bigint exp = Bigint::random_bits(rng, 200);
    EXPECT_EQ(owner.pow(base, exp), pub.pow(base, exp));
  }
}

TEST(PowerContext, NegativeExponentInverts) {
  Bigint p(1009), q(1013);
  PowerContext owner(p * q, p, q);
  Bigint base(5);
  Bigint x = owner.pow(base, Bigint(-3));
  EXPECT_EQ(owner.mul(x, owner.pow(base, Bigint(3))), Bigint(1));
}

TEST(PowerContext, RejectsWrongFactors) {
  EXPECT_THROW(PowerContext(Bigint(15), Bigint(3), Bigint(7)), UsageError);
}

TEST(PowerContext, PhiExposed) {
  Bigint p(11), q(13);
  PowerContext owner(p * q, p, q);
  EXPECT_EQ(owner.phi().to_u64(), 120u);
}

TEST(PowerContext, HugeExponentReducedByTrapdoor) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  PowerContext owner(p * q, p, q);
  PowerContext pub(p * q);
  DeterministicRng rng(10);
  Bigint exp = Bigint::random_bits(rng, 5000);
  Bigint base(2);
  EXPECT_EQ(owner.pow(base, exp), pub.pow(base, exp));
}


// --- fixed-base tables ------------------------------------------------------
//
// Every table evaluation is checked against a plain GMP powm (of the inverse
// for negative exponents).  Small moduli keep scans over every exponent
// width cheap; the digit/column logic does not depend on the modulus size.

const Bigint kP = Bigint::from_decimal("1000000007");
const Bigint kQ = Bigint::from_decimal("1000000009");

Bigint reference_pow(const Bigint& base, const Bigint& exp, const Bigint& n) {
  if (!exp.is_negative()) return Bigint::pow_mod(base, exp, n);
  return Bigint::invert_mod(Bigint::pow_mod(base, -exp, n), n);
}

// ctx.pow(base, ±e) == powm for one random e of exactly each width.
void expect_pow_matches(const PowerContext& ctx, const Bigint& base,
                        const std::vector<std::size_t>& widths, DeterministicRng& rng) {
  for (std::size_t bits : widths) {
    Bigint e = Bigint::random_bits(rng, bits);
    mpz_setbit(e.raw_mut(), bits - 1);
    ASSERT_EQ(ctx.pow(base, e), reference_pow(base, e, ctx.modulus())) << bits << " bits";
    ASSERT_EQ(ctx.pow(base, -e), reference_pow(base, -e, ctx.modulus())) << "-" << bits;
  }
}

std::vector<std::size_t> widths_up_to(std::size_t last) {
  std::vector<std::size_t> out;
  for (std::size_t b = 1; b <= last; ++b) out.push_back(b);
  return out;
}

// A public-side table of window w built by hand and adopted through
// import_fixed_base, so every window can be paired with a small capacity.
FixedBaseSnapshot snapshot_with_window(const Bigint& base, const Bigint& n, std::size_t window,
                                       std::size_t capacity_bits) {
  FixedBaseSnapshot snap{.base = base, .window = window, .capacity_bits = capacity_bits,
                         .powers = {Bigint::mod(base, n)}};
  const Bigint step(long{1} << window);
  while (snap.powers.size() * window < capacity_bits) {
    snap.powers.push_back(Bigint::pow_mod(snap.powers.back(), step, n));
  }
  return snap;
}

std::uint64_t fixedbase_count(const char* result) {
  return obs::MetricsRegistry::global()
      .counter("vc_fixedbase_total", std::string("result=\"") + result + "\"")
      .value();
}

TEST(FixedBase, EveryWindowEveryWidthMatchesPowm) {
  obs::set_enabled(true);
  const Bigint n = kP * kQ;
  DeterministicRng rng(21);
  const Bigint base = Bigint::random_below(rng, n);
  for (std::size_t window = 2; window <= 12; ++window) {
    // 40 digits: several columns at every per-call digit width.
    const std::size_t capacity = 40 * window;
    PowerContext pub(n);
    pub.import_fixed_base(snapshot_with_window(base, n, window, capacity));
    SCOPED_TRACE(window);
    const std::uint64_t hits = fixedbase_count("hit");
    expect_pow_matches(pub, base, widths_up_to(capacity + 8), rng);
    EXPECT_GT(fixedbase_count("hit"), hits + capacity);  // the table, not just powm
  }
}

TEST(FixedBase, PreparedCapacitiesSpanWindows) {
  const Bigint n = kP * kQ;
  DeterministicRng rng(22);
  const Bigint base = Bigint::random_below(rng, n);
  // Capacities whose chosen window is 2, 3, ..., 12.
  const std::vector<std::size_t> capacities = {16,    64,     256,    768,    2048,  6000,
                                               16000, 40000, 100000, 250000, 400000};
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const std::size_t capacity = capacities[i];
    PowerContext pub(n);
    pub.prepare_fixed_base(base, capacity);
    ASSERT_EQ(pub.export_fixed_base()->window, i + 2) << capacity;
    SCOPED_TRACE(capacity);
    // Every width up to 2048 bits (the whole range for the narrower
    // capacities), a stride through the rest, and the capacity edge.
    std::vector<std::size_t> widths = widths_up_to(std::min<std::size_t>(capacity + 8, 2048));
    if (capacity > 2048) {
      for (std::size_t b = 2048 + capacity / 8; b < capacity; b += capacity / 8) {
        widths.push_back(b);
      }
      for (std::size_t b = capacity - 8; b <= capacity + 8; ++b) widths.push_back(b);
    }
    expect_pow_matches(pub, base, widths, rng);
  }
}

TEST(FixedBase, TrapdoorTablesMatchPowm) {
  DeterministicRng rng(23);
  // Prime sizes whose CRT tables pick windows 3, 4 and 5.
  for (std::size_t prime_bits : {30, 128, 400}) {
    auto random_prime = [&] {
      Bigint start = Bigint::random_bits(rng, prime_bits);
      mpz_setbit(start.raw_mut(), prime_bits - 1);
      return next_prime_from(start, rng);
    };
    Bigint p = random_prime();
    Bigint q = random_prime();
    ASSERT_NE(p, q);
    PowerContext owner(p * q, p, q);
    const Bigint base = Bigint::random_below(rng, owner.modulus());
    owner.prepare_fixed_base(base, 0);
    SCOPED_TRACE(prime_bits);
    expect_pow_matches(owner, base, widths_up_to(owner.modulus().bit_length() + 8), rng);
  }
}

TEST(FixedBase, NegativeExponentOfTableBaseIsAHit) {
  obs::set_enabled(true);
  const Bigint n = kP * kQ;
  DeterministicRng rng(24);
  const Bigint g = Bigint::random_below(rng, n);
  PowerContext pub(n);
  pub.prepare_fixed_base(g, 20000);
  // One interval's worth of 128-bit representatives: a 12.8k-bit exponent.
  Bigint e = Bigint::random_bits(rng, 12800);
  const std::uint64_t hits = fixedbase_count("hit");
  const std::uint64_t misses = fixedbase_count("miss");
  EXPECT_EQ(pub.pow(g, -e), reference_pow(g, -e, n));
  EXPECT_EQ(fixedbase_count("hit"), hits + 1);
  EXPECT_EQ(fixedbase_count("miss"), misses);
}

}  // namespace
}  // namespace vc
