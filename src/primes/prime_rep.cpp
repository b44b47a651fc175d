#include "primes/prime_rep.hpp"

#include "hash/hmac.hpp"
#include "support/errors.hpp"

namespace vc {

PrimeRepGenerator::PrimeRepGenerator(PrimeRepConfig config)
    : config_(std::move(config)),
      // Key the hash by the domain so different domains give independent streams.
      hmac_(Sha256::hash("vc.prime-rep.key/" + config_.domain)) {
  if (config_.rep_bits < 32) throw UsageError("rep_bits must be >= 32");
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
  const std::size_t excess = nbytes * 8 - config_.rep_bits;
  // Candidate c is HMAC(key, element || u32le(c)) expanded by MGF1: absorb
  // the element once and let each candidate append only its counter.
  Sha256 keyed_element = hmac_.inner();
  keyed_element.update(element);
  Bytes candidate_bytes(nbytes);
  Bigint candidate;
  for (std::uint32_t counter = 0;; ++counter) {
    const std::uint8_t counter_le[4] = {
        static_cast<std::uint8_t>(counter), static_cast<std::uint8_t>(counter >> 8),
        static_cast<std::uint8_t>(counter >> 16), static_cast<std::uint8_t>(counter >> 24)};
    Sha256 inner = keyed_element;
    inner.update(std::span<const std::uint8_t>(counter_le, 4));
    mgf1_sha256(hmac_.finish(inner), candidate_bytes);
    // Trim to width, force exact bit length and oddness.
    candidate_bytes[0] &= static_cast<std::uint8_t>(0xFF >> excess);
    candidate.set_bytes(candidate_bytes);  // two whole-limb loads at 128 bits
    mpz_setbit(candidate.raw_mut(), config_.rep_bits - 1);
    mpz_setbit(candidate.raw_mut(), 0);
    if (is_probable_prime(candidate)) return candidate;
  }
}

}  // namespace vc
