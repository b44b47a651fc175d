// Counting Bloom filters for integrity proofs (§III-D2).
//
// The Bloom-based integrity proof keeps two counting filters B(X1), B(X2)
// and discloses only the *check elements* — members of X1\X and X2\X whose
// slots collide between the filters (Eq 8/9).  With well-spread hashes the
// expected number of check elements is k²|X1||X2|/m (Eq 11/12), minimized
// at k = 1, which is the paper's choice and our default.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hash/hmac.hpp"
#include "support/bytes.hpp"

namespace vc {

namespace advtest {
struct BloomTamper;
}  // namespace advtest

struct CompressedBloom;

struct BloomParams {
  std::uint32_t counters = 1024;  // m
  std::uint32_t hashes = 1;       // k (paper: one hash is optimal)
  std::string domain = "vc.bloom";

  void write(ByteWriter& w) const;
  static BloomParams read(ByteReader& r);
  friend bool operator==(const BloomParams&, const BloomParams&) = default;
};

class CountingBloom {
 public:
  explicit CountingBloom(BloomParams params);

  static CountingBloom from_set(BloomParams params, std::span<const std::uint64_t> elements);

  void add(std::uint64_t element);
  // Throws CryptoError if the element's counters are already zero.
  void remove(std::uint64_t element);

  [[nodiscard]] const BloomParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t counter(std::size_t j) const { return counters_[j]; }
  [[nodiscard]] const std::vector<std::uint32_t>& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t element_count() const { return elements_added_; }
  // Load l = k * elements / m  (Eq 10-12).
  [[nodiscard]] double load() const;

  // The k slot positions of an element (deterministic keyed hash).
  [[nodiscard]] std::vector<std::uint32_t> positions(std::uint64_t element) const;

  // Element-wise minimum B̂ of two filters with identical params.
  static CountingBloom elementwise_min(const CountingBloom& a, const CountingBloom& b);

  // The keyed hash is a function of the params, so it takes no part.
  friend bool operator==(const CountingBloom& a, const CountingBloom& b) {
    return a.params_ == b.params_ && a.counters_ == b.counters_ &&
           a.elements_added_ == b.elements_added_;
  }

 private:
  // Narrow test-only hook: the adversarial soundness harness (src/advtest)
  // forges dishonest filter states (decremented / inflated counters) that
  // the public API refuses to construct.
  friend struct advtest::BloomTamper;
  // The compressed form is the only encoding a filter has; decoding it
  // writes the counters directly (compressed_bloom.hpp).
  friend CountingBloom decompress_bloom(const CompressedBloom& compressed);

  BloomParams params_;
  HmacSha256 hmac_;  // keyed by params_.domain
  std::vector<std::uint32_t> counters_;
  std::uint64_t elements_added_ = 0;
};

// Check-element extraction (prover side): given X1, X2 and X = X1 ∩ X2,
// returns C1 ⊆ X1\X and C2 ⊆ X2\X — the elements hashing into slots where
// B(X) disagrees with min(B(X1), B(X2)).
struct CheckElements {
  std::vector<std::uint64_t> c1;
  std::vector<std::uint64_t> c2;
};
CheckElements extract_check_elements(const BloomParams& params,
                                     std::span<const std::uint64_t> x1,
                                     std::span<const std::uint64_t> x2,
                                     std::span<const std::uint64_t> intersection);

// Verifier side slot accounting (Eq 8/9): for every slot j with
// B(X)_j < B̂_j, the disclosed check elements must exactly close the gap in
// both filters.
bool verify_check_elements(const CountingBloom& b1, const CountingBloom& b2,
                           std::span<const std::uint64_t> intersection,
                           std::span<const std::uint64_t> c1,
                           std::span<const std::uint64_t> c2);

// Entropy of a Poisson(load) counter in bits — H(l) in Eq 10; the expected
// compressed size of a counting filter is m * H(l) bits.
double poisson_entropy_bits(double load);

}  // namespace vc
