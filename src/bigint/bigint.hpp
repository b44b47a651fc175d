// Arbitrary-precision integers for vcsearch.
//
// vc::Bigint is a value-semantic RAII wrapper over GMP's mpz_t.  GMP supplies
// the arithmetic kernels and the primality test (the role NTL played in the
// paper's prototype); the number-theoretic algorithms the scheme relies on —
// safe prime search, CRT exponentiation, Bézout witnesses — are implemented
// in this library on top of it.
#pragma once

#include <gmp.h>

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/bytes.hpp"

namespace vc {

class DeterministicRng;

class Bigint {
 public:
  Bigint() { mpz_init(z_); }
  Bigint(long v) { mpz_init_set_si(z_, v); }  // NOLINT: implicit by design
  ~Bigint() { mpz_clear(z_); }

  Bigint(const Bigint& o) { mpz_init_set(z_, o.z_); }
  Bigint(Bigint&& o) noexcept {
    mpz_init(z_);
    mpz_swap(z_, o.z_);
  }
  Bigint& operator=(const Bigint& o) {
    if (this != &o) mpz_set(z_, o.z_);
    return *this;
  }
  Bigint& operator=(Bigint&& o) noexcept {
    mpz_swap(z_, o.z_);
    return *this;
  }

  // --- construction -------------------------------------------------------
  static Bigint from_u64(std::uint64_t v);
  static Bigint from_decimal(std::string_view s);  // throws ParseError
  // Big-endian magnitude (no sign); empty span gives 0.
  static Bigint from_bytes(std::span<const std::uint8_t> be);
  // Uniform in [0, 2^bits).
  static Bigint random_bits(DeterministicRng& rng, std::size_t bits);
  // Uniform in [0, bound).
  static Bigint random_below(DeterministicRng& rng, const Bigint& bound);

  // --- predicates / accessors ---------------------------------------------
  [[nodiscard]] bool is_zero() const { return mpz_sgn(z_) == 0; }
  [[nodiscard]] bool is_one() const { return mpz_cmp_ui(z_, 1) == 0; }
  [[nodiscard]] bool is_odd() const { return mpz_odd_p(z_) != 0; }
  [[nodiscard]] bool is_negative() const { return mpz_sgn(z_) < 0; }
  [[nodiscard]] int sign() const { return mpz_sgn(z_); }
  [[nodiscard]] std::size_t bit_length() const {
    return is_zero() ? 0 : mpz_sizeinbase(z_, 2);
  }
  [[nodiscard]] bool test_bit(std::size_t i) const { return mpz_tstbit(z_, i) != 0; }
  [[nodiscard]] bool fits_u64() const;
  [[nodiscard]] std::uint64_t to_u64() const;  // throws UsageError if negative/too big
  [[nodiscard]] std::string to_decimal() const;
  // Big-endian magnitude; sign is dropped (callers serialize sign separately).
  [[nodiscard]] Bytes to_bytes() const;

  // --- arithmetic ----------------------------------------------------------
  friend Bigint operator+(const Bigint& a, const Bigint& b);
  friend Bigint operator-(const Bigint& a, const Bigint& b);
  friend Bigint operator*(const Bigint& a, const Bigint& b);
  // Truncated quotient/remainder (like C).
  friend Bigint operator/(const Bigint& a, const Bigint& b);
  friend Bigint operator%(const Bigint& a, const Bigint& b);
  Bigint& operator+=(const Bigint& b);
  Bigint& operator-=(const Bigint& b);
  Bigint& operator*=(const Bigint& b);
  Bigint operator-() const;

  friend bool operator==(const Bigint& a, const Bigint& b) { return mpz_cmp(a.z_, b.z_) == 0; }
  friend std::strong_ordering operator<=>(const Bigint& a, const Bigint& b) {
    int c = mpz_cmp(a.z_, b.z_);
    return c < 0 ? std::strong_ordering::less
                 : c > 0 ? std::strong_ordering::greater : std::strong_ordering::equal;
  }
  friend bool operator==(const Bigint& a, long b) { return mpz_cmp_si(a.z_, b) == 0; }

  // --- number theory --------------------------------------------------------
  // Non-negative remainder in [0, m).
  static Bigint mod(const Bigint& a, const Bigint& m);
  // (base^exp) mod m; exp must be >= 0 and m odd or generic (uses GMP powm).
  static Bigint pow_mod(const Bigint& base, const Bigint& exp, const Bigint& m);
  // Modular inverse; throws CryptoError when gcd(a, m) != 1.
  static Bigint invert_mod(const Bigint& a, const Bigint& m);
  static Bigint gcd(const Bigint& a, const Bigint& b);
  // g = gcd(a,b) = s*a + t*b.
  static void gcd_ext(const Bigint& a, const Bigint& b, Bigint& g, Bigint& s, Bigint& t);
  static Bigint lcm(const Bigint& a, const Bigint& b);
  // Product of a span of values (balanced product tree; the accumulator
  // exponent u = prod x_i for thousands of 128-bit primes is built here).
  static Bigint product(std::span<const Bigint> xs);

  // Exact division (b must divide a); throws CryptoError otherwise.
  static Bigint div_exact(const Bigint& a, const Bigint& b);

  // Serialization: sign byte + big-endian magnitude, length-prefixed.
  static constexpr std::size_t kMinEncodedBytes = 2;  // sign + empty length
  void write(ByteWriter& w) const;
  static Bigint read(ByteReader& r);
  // Byte size of the canonical encoding (for proof-size accounting).
  [[nodiscard]] std::size_t encoded_size() const;

  // Escape hatch for module-internal GMP calls.
  [[nodiscard]] mpz_srcptr raw() const { return z_; }
  [[nodiscard]] mpz_ptr raw_mut() { return z_; }

 private:
  mpz_t z_;
};

// Trial division plus Baillie–PSW (strong base-2 Fermat and strong Lucas).
// Never rejects a prime and has no known composite counterexample; the
// accumulator needs every element it accumulates to be prime (§II-A).  A
// pure function of n: no random bases, no round count.
[[nodiscard]] bool is_probable_prime(const Bigint& n);

}  // namespace vc
