#include "bigint/bigint.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {

namespace {

// Big-endian magnitude <-> limbs, a whole 64-bit limb at a time.  mpz_import
// and mpz_export walk byte-sized words (~0.3 us for a 512-bit value), and the
// epoch store converts three group elements per interval on every encode and
// every lazy parse.
static_assert(GMP_LIMB_BITS == 64 && GMP_NAIL_BITS == 0, "64-bit nail-free limbs");

std::uint64_t load_be(const std::uint8_t* p, std::size_t n) {
  if (n == 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return __builtin_bswap64(v);  // the toolchain targets little-endian platforms only
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v = v << 8 | p[i];
  return v;
}

// Writes |z| into `out`, which holds exactly its significant bytes.
void export_be(mpz_srcptr z, std::span<std::uint8_t> out) {
  const mp_limb_t* limbs = mpz_limbs_read(z);
  std::size_t end = out.size();
  for (std::size_t i = 0; end > 0; ++i) {
    std::uint64_t v = limbs[i];
    if (end >= 8) {
      v = __builtin_bswap64(v);
      std::memcpy(out.data() + end - 8, &v, sizeof(v));
      end -= 8;
    } else {
      for (; end > 0; v >>= 8) out[--end] = static_cast<std::uint8_t>(v);
    }
  }
}

}  // namespace

Bigint Bigint::from_u64(std::uint64_t v) {
  Bigint r;
  mpz_import(r.z_, 1, 1, sizeof(v), 0, 0, &v);
  return r;
}

Bigint Bigint::from_decimal(std::string_view s) {
  Bigint r;
  std::string owned(s);
  if (mpz_set_str(r.z_, owned.c_str(), 10) != 0) {
    throw ParseError("invalid decimal integer: " + owned);
  }
  return r;
}

Bigint Bigint::from_bytes(std::span<const std::uint8_t> be) {
  Bigint r;
  if (be.empty()) return r;
  const std::size_t n = (be.size() + 7) / 8;
  mp_limb_t* limbs = mpz_limbs_write(r.z_, static_cast<mp_size_t>(n));
  std::size_t end = be.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t take = std::min<std::size_t>(8, end);
    limbs[i] = load_be(be.data() + end - take, take);
    end -= take;
  }
  mpz_limbs_finish(r.z_, static_cast<mp_size_t>(n));  // strips leading zero limbs
  return r;
}

Bigint Bigint::random_bits(DeterministicRng& rng, std::size_t bits) {
  if (bits == 0) return Bigint();
  std::size_t nbytes = (bits + 7) / 8;
  Bytes raw = rng.bytes(nbytes);
  std::size_t excess = nbytes * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  return from_bytes(raw);
}

Bigint Bigint::random_below(DeterministicRng& rng, const Bigint& bound) {
  if (bound.sign() <= 0) throw UsageError("random_below: bound must be positive");
  std::size_t bits = bound.bit_length();
  while (true) {
    Bigint candidate = random_bits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

bool Bigint::fits_u64() const {
  return sign() >= 0 && bit_length() <= 64;
}

std::uint64_t Bigint::to_u64() const {
  if (!fits_u64()) throw UsageError("Bigint does not fit in u64");
  std::uint64_t v = 0;
  std::size_t count = 0;
  mpz_export(&v, &count, -1, sizeof(v), 0, 0, z_);
  return v;
}

std::string Bigint::to_decimal() const {
  std::vector<char> buf(mpz_sizeinbase(z_, 10) + 2);
  mpz_get_str(buf.data(), 10, z_);
  return std::string(buf.data());
}

Bytes Bigint::to_bytes() const {
  if (is_zero()) return {};
  Bytes out((mpz_sizeinbase(z_, 2) + 7) / 8);
  export_be(z_, out);
  return out;
}

Bigint operator+(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_add(r.z_, a.z_, b.z_);
  return r;
}
Bigint operator-(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_sub(r.z_, a.z_, b.z_);
  return r;
}
Bigint operator*(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_mul(r.z_, a.z_, b.z_);
  return r;
}
Bigint operator/(const Bigint& a, const Bigint& b) {
  if (b.is_zero()) throw UsageError("division by zero");
  Bigint r;
  mpz_tdiv_q(r.z_, a.z_, b.z_);
  return r;
}
Bigint operator%(const Bigint& a, const Bigint& b) {
  if (b.is_zero()) throw UsageError("division by zero");
  Bigint r;
  mpz_tdiv_r(r.z_, a.z_, b.z_);
  return r;
}
Bigint& Bigint::operator+=(const Bigint& b) {
  mpz_add(z_, z_, b.z_);
  return *this;
}
Bigint& Bigint::operator-=(const Bigint& b) {
  mpz_sub(z_, z_, b.z_);
  return *this;
}
Bigint& Bigint::operator*=(const Bigint& b) {
  mpz_mul(z_, z_, b.z_);
  return *this;
}
Bigint Bigint::operator-() const {
  Bigint r;
  mpz_neg(r.z_, z_);
  return r;
}

Bigint Bigint::mod(const Bigint& a, const Bigint& m) {
  if (m.sign() <= 0) throw UsageError("mod: modulus must be positive");
  Bigint r;
  mpz_mod(r.z_, a.z_, m.z_);
  return r;
}

Bigint Bigint::pow_mod(const Bigint& base, const Bigint& exp, const Bigint& m) {
  if (exp.is_negative()) throw UsageError("pow_mod: negative exponent (invert first)");
  if (m.sign() <= 0) throw UsageError("pow_mod: modulus must be positive");
  Bigint r;
  mpz_powm(r.z_, base.z_, exp.z_, m.z_);
  return r;
}

Bigint Bigint::invert_mod(const Bigint& a, const Bigint& m) {
  Bigint r;
  if (mpz_invert(r.z_, a.z_, m.z_) == 0) {
    throw CryptoError("element not invertible modulo modulus");
  }
  return r;
}

Bigint Bigint::gcd(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_gcd(r.z_, a.z_, b.z_);
  return r;
}

void Bigint::gcd_ext(const Bigint& a, const Bigint& b, Bigint& g, Bigint& s, Bigint& t) {
  mpz_gcdext(g.z_, s.z_, t.z_, a.z_, b.z_);
}

Bigint Bigint::lcm(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_lcm(r.z_, a.z_, b.z_);
  return r;
}

Bigint Bigint::product(std::span<const Bigint> xs) {
  // Balanced product tree: multiplying similarly sized operands keeps GMP in
  // its subquadratic range; the naive left fold is quadratic in total bits.
  if (xs.empty()) return Bigint(1);
  std::vector<Bigint> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::vector<Bigint> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i] * level[i + 1]);
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

// GMP 6.2 made mpz_probab_prime_p run BPSW before its reps-24 random
// Miller–Rabin rounds, so reps = 24 is BPSW alone.
static_assert(__GNU_MP_RELEASE >= 60200, "mpz_probab_prime_p is BPSW from GMP 6.2 on");

bool is_probable_prime(const Bigint& n) {
  return n.sign() > 0 && mpz_probab_prime_p(n.raw(), 24) != 0;
}

Bigint Bigint::div_exact(const Bigint& a, const Bigint& b) {
  if (b.is_zero()) throw UsageError("div_exact: division by zero");
  if (!(a % b).is_zero()) throw CryptoError("div_exact: not divisible");
  Bigint r;
  mpz_divexact(r.z_, a.z_, b.z_);
  return r;
}

void Bigint::write(ByteWriter& w) const {
  w.u8(is_negative() ? 1 : 0);
  const std::size_t count = is_zero() ? 0 : (mpz_sizeinbase(z_, 2) + 7) / 8;
  w.varint(count);
  if (count > 0) export_be(z_, w.extend(count));
}

Bigint Bigint::read(ByteReader& r) {
  std::uint8_t neg = r.u8();
  if (neg > 1) throw ParseError("invalid bigint sign byte");
  auto mag = r.bytes_view();
  Bigint v = from_bytes(mag);
  if (neg) {
    mpz_neg(v.z_, v.z_);
  }
  return v;
}

std::size_t Bigint::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

}  // namespace vc
