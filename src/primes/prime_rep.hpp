// Prime representatives (§II-B3).
//
// RSA accumulators require every accumulated element to be prime.  Following
// Goodrich et al. and Gennaro–Halevi–Rabin, arbitrary elements map to primes
// via a deterministic keyed hash-and-test: hash the element with an
// incrementing counter until the resulting odd candidate of the configured
// width passes BPSW (is_probable_prime).  The test never rejects a prime, so
// the representative is the first truly prime candidate.  Both the owner and
// the cloud run the same deterministic mapping, so representatives never
// travel on the wire unless a proof chooses to include them (Table I's "with
// prime" variant).  A proof may instead ship the counter the search stopped
// at (interval descriptors do): the verifier then derives that one
// candidate and tests it, instead of searching (Ozdemir et al., prover-
// supplied nonces; docs/SOUNDNESS.md).
//
// Width note: the paper maps k-bit elements to 3k-bit representatives to
// make the map collision-free under hashing assumptions.  The width here is
// configurable (default 128 bits for 64-bit index elements, i.e. 2k) —
// benchmarks sweep it, and the accumulator constraint 2·rep_bits + 4 ≤ |n|
// is enforced by VerifiableIndexConfig::validate.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "bigint/bigint.hpp"
#include "hash/hmac.hpp"
#include "support/bytes.hpp"

namespace vc {

struct PrimeRepConfig {
  // Bit width of generated representatives (top bit forced to 1).
  std::size_t rep_bits = 128;
  // Domain-separation label: tuples, docIDs, interval accumulators and
  // dictionary gaps each use their own domain so streams are independent.
  std::string domain = "vc.default";
};

// A representative together with the counter whose candidate it is.
struct PrimeRep {
  Bigint prime;
  std::uint32_t counter = 0;
};

class PrimeRepGenerator {
 public:
  explicit PrimeRepGenerator(PrimeRepConfig config);

  // Deterministic prime representative of a 64-bit element.
  [[nodiscard]] Bigint representative(std::uint64_t element) const;
  // Deterministic prime representative of an arbitrary byte string (used
  // for dictionary words and interval accumulator values).
  [[nodiscard]] Bigint representative(std::span<const std::uint8_t> element) const;
  [[nodiscard]] Bigint representative(std::string_view element) const;

  // Candidate `counter` of `element`: HMAC(key, element || u32le(counter))
  // expanded by MGF1 to the width, with the top and low bits set.  Not
  // necessarily prime.
  [[nodiscard]] Bigint candidate(std::span<const std::uint8_t> element,
                                 std::uint32_t counter) const;
  // The first prime candidate and its counter: representative(element) is
  // search(element).prime.
  [[nodiscard]] PrimeRep search(std::span<const std::uint8_t> element) const;

  [[nodiscard]] const PrimeRepConfig& config() const { return config_; }

 private:
  // Candidate `counter` of the element absorbed into `keyed_element` (the
  // HMAC inner state after the element), written into `out`.
  void candidate_into(const Sha256& keyed_element, std::uint32_t counter, Bytes& scratch,
                      Bigint& out) const;

  PrimeRepConfig config_;
  HmacSha256 hmac_;  // keyed by the domain
};

}  // namespace vc
