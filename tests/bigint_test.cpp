#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/power_context.hpp"
#include "crypto/keygen.hpp"
#include "crypto/standard_params.hpp"
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

TEST(Bigint, SetBytesOverwritesAWiderValue) {
  DeterministicRng rng(4);
  Bigint b = Bigint::random_bits(rng, 1024);
  const Bytes be = {0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x0F};
  b.set_bytes(be);
  EXPECT_EQ(b, Bigint::from_bytes(be));
  EXPECT_EQ(b.bit_length(), 128u);
  b.set_bytes({});
  EXPECT_TRUE(b.is_zero());
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

// from_bytes/to_bytes convert whole limbs; check them against a byte-wise
// Horner evaluation across limb boundaries, with leading zero bytes.
TEST(Bigint, BytesMatchHornerAcrossLimbWidths) {
  DeterministicRng rng(7);
  for (std::size_t len = 1; len <= 40; ++len) {
    Bytes be = rng.bytes(len);
    be[0] = len % 3 == 0 ? 0 : be[0];  // some inputs lead with a zero byte
    Bigint want;
    for (std::uint8_t b : be) want = want * Bigint(256) + Bigint(b);
    Bigint got = Bigint::from_bytes(be);
    EXPECT_EQ(got, want) << len;
    Bytes trimmed(std::find_if(be.begin(), be.end(), [](std::uint8_t b) { return b != 0; }),
                  be.end());
    EXPECT_EQ(got.to_bytes(), trimmed) << len;
  }
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

TEST(Primality, SmallPrimes) {
  for (long p : {2L, 3L, 5L, 7L, 11L, 13L, 97L, 251L, 257L, 65537L}) {
    EXPECT_TRUE(is_probable_prime(Bigint(p))) << p;
  }
}

TEST(Primality, SmallComposites) {
  for (long c : {-7L, 0L, 1L, 4L, 9L, 100L, 255L, 1001L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c))) << c;
  }
}

TEST(Primality, CarmichaelNumbers) {
  // Fermat pseudoprimes to every coprime base; the strong test rejects them.
  for (long c : {561L, 1105L, 1729L, 2465L, 2821L, 6601L, 8911L, 41041L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c))) << c;
  }
}

TEST(Primality, StrongBaseTwoPseudoprimes) {
  // Composites that pass the strong base-2 test, the first half of BPSW;
  // the strong Lucas half must reject every one.
  for (const char* c : {"2047", "3277", "1373653", "3215031751", "3825123056546413051"}) {
    EXPECT_FALSE(is_probable_prime(Bigint::from_decimal(c))) << c;
  }
}

TEST(Primality, KnownLargePrime) {
  // 2^127 - 1 is a Mersenne prime.
  Bigint m127 = Bigint::from_decimal("170141183460469231731687303715884105727");
  EXPECT_TRUE(is_probable_prime(m127));
  EXPECT_FALSE(is_probable_prime(m127 * Bigint(3)));
}

TEST(Primality, ProductOfTwoPrimesRejected) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  EXPECT_FALSE(is_probable_prime(p * q));
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
    Bigint p = random_prime(rng, prime_bits);
    Bigint q = random_prime(rng, prime_bits);
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

// Bases of fewer limbs than the modulus (one limb, a few limbs), bases >= n
// and a negative base all pass through the table's Montgomery conversion;
// a one-limb base once made that conversion read past the base's limbs.
TEST(FixedBase, ShortAndUnreducedBasesMatchPowm) {
  const RsaModulus& mod = standard_accumulator_modulus(1024);
  DeterministicRng rng(25);
  const std::vector<Bigint> bases = {Bigint(2),
                                     Bigint(3),
                                     Bigint::random_bits(rng, 70),
                                     Bigint::random_bits(rng, 600),
                                     mod.n + Bigint(5),
                                     mod.n * Bigint(3) + Bigint(7),
                                     Bigint(-7)};
  const std::vector<std::size_t> widths = {1, 2, 31, 32, 63, 64, 65, 128, 1000, 2048};
  for (const Bigint& base : bases) {
    SCOPED_TRACE(base.bit_length());
    PowerContext pub(mod.n);
    pub.prepare_fixed_base(base, 2048);
    expect_pow_matches(pub, base, widths, rng);
    PowerContext owner(mod.n, mod.p, mod.q);
    owner.prepare_fixed_base(base, 0);
    expect_pow_matches(owner, base, widths, rng);

    // The exported image is canonical and survives a round trip.
    const std::optional<FixedBaseSnapshot> image = pub.export_fixed_base();
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->powers[0], Bigint::mod(base, mod.n));
    PowerContext adopted(mod.n);
    adopted.import_fixed_base(*image);
    EXPECT_EQ(adopted.export_fixed_base()->powers, image->powers);
    expect_pow_matches(adopted, base, {64, 2048}, rng);
  }
}

// An exponent as wide as the capacity is served by the table; one bit
// wider falls back to powm and counts as a miss.  Only the table-served
// exponentiations are timed in the fixed_base_pow stage.
TEST(FixedBase, CapacityEdgeHitsAndOnePastIsAMiss) {
  obs::set_enabled(true);
  const RsaModulus& mod = standard_accumulator_modulus(1024);
  const Bigint& g = standard_qr_generator(1024);
  PowerContext pub(mod.n);
  pub.prepare_fixed_base(g, 201 * 128);
  ASSERT_EQ(pub.fixed_base_capacity_bits(), 25'728u);
  const obs::Histogram& stage = obs::MetricsRegistry::global().stage("fixed_base_pow");
  DeterministicRng rng(26);
  for (std::size_t bits : {25'727u, 25'728u, 25'729u}) {
    SCOPED_TRACE(bits);
    Bigint e = Bigint::random_bits(rng, bits);
    mpz_setbit(e.raw_mut(), bits - 1);
    const std::uint64_t hits = fixedbase_count("hit");
    const std::uint64_t misses = fixedbase_count("miss");
    const std::uint64_t timed = stage.snapshot().count;
    EXPECT_EQ(pub.pow(g, e), reference_pow(g, e, mod.n));
    const bool inside = bits <= pub.fixed_base_capacity_bits();
    EXPECT_EQ(fixedbase_count("hit"), hits + (inside ? 1 : 0));
    EXPECT_EQ(fixedbase_count("miss"), misses + (inside ? 0 : 1));
    EXPECT_EQ(stage.snapshot().count, timed + (inside ? 1 : 0));
  }
}

// The owner's tables live mod p and mod q at the paper's modulus size:
// every exponent, however wide, is served by them after reduction, and
// they never leave the context.
TEST(FixedBase, TrapdoorTablesServeEveryWidthAndAreNeverExported) {
  obs::set_enabled(true);
  const RsaModulus& mod = standard_accumulator_modulus(1024);
  const Bigint& g = standard_qr_generator(1024);
  PowerContext owner(mod.n, mod.p, mod.q);
  owner.prepare_fixed_base(g, 0);
  EXPECT_EQ(owner.fixed_base_capacity_bits(), static_cast<std::size_t>(-1));
  DeterministicRng rng(27);
  for (std::size_t bits : {128u, 12'800u, 100'000u}) {
    SCOPED_TRACE(bits);
    Bigint e = Bigint::random_bits(rng, bits);
    mpz_setbit(e.raw_mut(), bits - 1);
    const std::uint64_t hits = fixedbase_count("hit");
    EXPECT_EQ(owner.pow(g, e), reference_pow(g, e, mod.n));
    EXPECT_EQ(owner.pow(g, -e), reference_pow(g, -e, mod.n));
    EXPECT_EQ(fixedbase_count("hit"), hits + 2);
  }
  EXPECT_FALSE(owner.export_fixed_base().has_value());
  PowerContext pub(mod.n);
  pub.prepare_fixed_base(g, 1000);
  EXPECT_THROW(owner.import_fixed_base(*pub.export_fixed_base()), UsageError);
}

// import_fixed_base takes bytes from the store: each damaged image is
// refused with UsageError and leaves the context without a table.
TEST(FixedBase, ImportRefusesDamagedImages) {
  const Bigint n = kP * kQ;
  const Bigint base(7);
  const FixedBaseSnapshot good = snapshot_with_window(base, n, 4, 64);
  auto refused = [&](FixedBaseSnapshot snap) {
    PowerContext pub(n);
    EXPECT_THROW(pub.import_fixed_base(snap), UsageError);
    return !pub.has_fixed_base(base);
  };
  FixedBaseSnapshot snap = good;
  snap.window = 13;
  EXPECT_TRUE(refused(snap)) << "window";
  snap = good;
  snap.powers.pop_back();
  EXPECT_TRUE(refused(snap)) << "entry count";
  snap = good;
  snap.powers[0] = Bigint(8);
  EXPECT_TRUE(refused(snap)) << "powers[0]";
  snap = good;
  snap.powers[1] = snap.powers[1] + Bigint(1);
  EXPECT_TRUE(refused(snap)) << "chain link";
  snap = good;
  snap.powers[5] = snap.powers[5] + n;
  EXPECT_TRUE(refused(snap)) << "entry >= n";
  snap = good;
  snap.powers[5] = snap.powers[5] - n;
  EXPECT_TRUE(refused(snap)) << "negative entry";

  PowerContext pub(n);
  pub.import_fixed_base(good);
  EXPECT_EQ(pub.export_fixed_base()->powers, good.powers);
}

// The table runs in Montgomery form, which needs an odd modulus: an even
// one is refused, as multi_pow refuses it, and leaves no table behind.
TEST(FixedBase, EvenModulusIsRefused) {
  const Bigint even = Bigint(1009) * Bigint(1012);
  const Bigint base(5);
  PowerContext pub(even);
  EXPECT_THROW(pub.prepare_fixed_base(base, 256), UsageError);
  EXPECT_THROW(pub.import_fixed_base(snapshot_with_window(base, even, 4, 64)), UsageError);
  EXPECT_FALSE(pub.has_fixed_base(base));
  EXPECT_EQ(pub.pow(base, Bigint(1000)), Bigint::pow_mod(base, Bigint(1000), even));
  PowerContext owner(Bigint(2) * Bigint(1009), Bigint(2), Bigint(1009));
  EXPECT_THROW(owner.prepare_fixed_base(base, 0), UsageError);
  EXPECT_FALSE(owner.has_fixed_base(base));
}

// --- multi-exponentiation ----------------------------------------------------

// Π pow(b_i, e_i), the product multi_pow must equal.
Bigint product_of_pows(const PowerContext& ctx, const std::vector<Bigint>& bases,
                       const std::vector<Bigint>& exps) {
  Bigint acc(1);
  for (std::size_t i = 0; i < bases.size(); ++i) acc = ctx.mul(acc, ctx.pow(bases[i], exps[i]));
  return acc;
}

TEST(PowerContext, MultiPowMatchesSeparatePows) {
  DeterministicRng rng(31);
  // Exponent widths cycle through zero, single bits, representative and
  // product widths, up to a 100-representative interval (12,800 bits) plus a
  // 64-bit batch coefficient; bases cycle through reduced values, values
  // past n, multiples of n and values narrower than n.
  const std::vector<std::size_t> widths = {0, 1, 2, 5, 64, 128, 192, 700, 1000, 13000};
  for (std::size_t modulus_bits : {512, 1024}) {
    const RsaModulus& mod = standard_accumulator_modulus(modulus_bits);
    const PowerContext pub(mod.n);
    const PowerContext owner(mod.n, mod.p, mod.q);
    for (std::size_t count : {1, 2, 3, 17, 258, 300}) {
      std::vector<Bigint> bases, exps;
      for (std::size_t i = 0; i < count; ++i) {
        Bigint base = Bigint::random_below(rng, mod.n);
        if (i % 7 == 3) base += mod.n * Bigint(static_cast<long>(i));  // >= n
        if (i % 11 == 5) base = mod.n;                                 // 0 mod n
        if (i % 13 == 6) base = Bigint(static_cast<long>(i) + 2);      // one limb
        const std::size_t bits = widths[(i * 7 + count) % widths.size()];
        Bigint e = Bigint::random_bits(rng, bits);
        if (bits > 0) mpz_setbit(e.raw_mut(), bits - 1);
        bases.push_back(std::move(base));
        exps.push_back(std::move(e));
      }
      SCOPED_TRACE(std::to_string(modulus_bits) + " bits, " + std::to_string(count) + " terms");
      const Bigint expected = product_of_pows(pub, bases, exps);
      EXPECT_EQ(pub.multi_pow(bases, exps), expected);
      EXPECT_EQ(owner.multi_pow(bases, exps), product_of_pows(owner, bases, exps));
      EXPECT_EQ(owner.multi_pow(bases, exps), expected);
    }
    // One term of every width, and a batch whose exponents are all zero.
    for (std::size_t bits : widths) {
      const std::vector<Bigint> base = {Bigint::random_below(rng, mod.n)};
      const std::vector<Bigint> exp = {Bigint::random_bits(rng, bits)};
      EXPECT_EQ(pub.multi_pow(base, exp), pub.pow(base[0], exp[0])) << bits;
      EXPECT_EQ(owner.multi_pow(base, exp), pub.pow(base[0], exp[0])) << bits;
    }
    const std::vector<Bigint> bases = {Bigint(5), Bigint(7)};
    const std::vector<Bigint> zeros = {Bigint(0), Bigint(0)};
    EXPECT_EQ(pub.multi_pow(bases, zeros), Bigint(1));
    EXPECT_EQ(owner.multi_pow(bases, zeros), Bigint(1));
    EXPECT_EQ(pub.multi_pow({}, {}), Bigint(1));
  }
}

TEST(PowerContext, MultiPowRejectsNegativeExponentsAndEvenModuli) {
  const PowerContext pub(kP * kQ);
  const std::vector<Bigint> bases = {Bigint(5), Bigint(7)};
  EXPECT_THROW((void)pub.multi_pow(bases, std::vector<Bigint>{Bigint(3), Bigint(-1)}),
               UsageError);
  EXPECT_THROW((void)pub.multi_pow(bases, std::vector<Bigint>{Bigint(3)}), UsageError);
  const PowerContext even(Bigint(1009) * Bigint(1012));
  EXPECT_THROW((void)even.multi_pow(bases, std::vector<Bigint>{Bigint(3), Bigint(1)}),
               UsageError);
}

}  // namespace
}  // namespace vc
