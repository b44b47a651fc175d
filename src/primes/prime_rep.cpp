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
  return search(std::span<const std::uint8_t>(buf, 8)).prime;
}

Bigint PrimeRepGenerator::representative(std::span<const std::uint8_t> element) const {
  return search(element).prime;
}

Bigint PrimeRepGenerator::representative(std::string_view element) const {
  return search(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(element.data()), element.size()))
      .prime;
}

void PrimeRepGenerator::candidate_into(const Sha256& keyed_element, std::uint32_t counter,
                                       Bytes& scratch, Bigint& out) const {
  const std::size_t nbytes = (config_.rep_bits + 7) / 8;
  const std::size_t excess = nbytes * 8 - config_.rep_bits;
  const std::uint8_t counter_le[4] = {
      static_cast<std::uint8_t>(counter), static_cast<std::uint8_t>(counter >> 8),
      static_cast<std::uint8_t>(counter >> 16), static_cast<std::uint8_t>(counter >> 24)};
  Sha256 inner = keyed_element;
  inner.update(std::span<const std::uint8_t>(counter_le, 4));
  scratch.resize(nbytes);
  mgf1_sha256(hmac_.finish(inner), scratch);
  // Trim to width, force exact bit length and oddness.
  scratch[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  out.set_bytes(scratch);  // two whole-limb loads at 128 bits
  mpz_setbit(out.raw_mut(), config_.rep_bits - 1);
  mpz_setbit(out.raw_mut(), 0);
}

Bigint PrimeRepGenerator::candidate(std::span<const std::uint8_t> element,
                                    std::uint32_t counter) const {
  Sha256 keyed_element = hmac_.inner();
  keyed_element.update(element);
  Bytes scratch;
  Bigint out;
  candidate_into(keyed_element, counter, scratch, out);
  return out;
}

PrimeRep PrimeRepGenerator::search(std::span<const std::uint8_t> element) const {
  // Absorb the element once and let each candidate append only its counter.
  Sha256 keyed_element = hmac_.inner();
  keyed_element.update(element);
  Bytes scratch;
  PrimeRep rep;
  for (;; ++rep.counter) {
    candidate_into(keyed_element, rep.counter, scratch, rep.prime);
    if (is_probable_prime(rep.prime)) return rep;
  }
}

}  // namespace vc
