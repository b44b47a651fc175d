#include "primes/prime_rep.hpp"

#include "hash/hmac.hpp"
#include "support/errors.hpp"

namespace vc {

PrimeRepGenerator::PrimeRepGenerator(PrimeRepConfig config) : config_(std::move(config)) {
  if (config_.rep_bits < 32) throw UsageError("rep_bits must be >= 32");
  // Key the hash by the domain so different domains give independent streams.
  Digest key = Sha256::hash("vc.prime-rep.key/" + config_.domain);
  hmac_key_.assign(key.begin(), key.end());
}

Bigint PrimeRepGenerator::representative(std::uint64_t element) const {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(element >> (8 * i));
  return search(std::span<const std::uint8_t>(buf, 8));
}

Bigint PrimeRepGenerator::representative(std::span<const std::uint8_t> element) const {
  return search(element);
}

Bigint PrimeRepGenerator::representative(std::string_view element) const {
  return search(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(element.data()), element.size()));
}

Bigint PrimeRepGenerator::search(std::span<const std::uint8_t> element) const {
  const std::size_t nbytes = (config_.rep_bits + 7) / 8;
  for (std::uint32_t counter = 0;; ++counter) {
    ByteWriter w;
    w.raw(element);
    w.u32(counter);
    Digest d = hmac_sha256(hmac_key_, w.data());
    Bytes candidate_bytes = mgf1_sha256(d, nbytes);
    // Trim to width, force exact bit length and oddness.
    std::size_t excess = nbytes * 8 - config_.rep_bits;
    candidate_bytes[0] &= static_cast<std::uint8_t>(0xFF >> excess);
    Bigint candidate = Bigint::from_bytes(candidate_bytes);
    mpz_setbit(candidate.raw_mut(), config_.rep_bits - 1);
    mpz_setbit(candidate.raw_mut(), 0);
    if (is_probable_prime(candidate)) return candidate;
  }
}

}  // namespace vc
