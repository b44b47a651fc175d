// Counting Bloom filters for integrity proofs (§III-D2).
//
// The Bloom-based integrity proof keeps one counting filter B(X_i) per
// keyword and discloses only the *check elements* — members of X_i\X whose
// slots collide between the filters (Eq 8/9, for Q >= 2 keywords).  With
// well-spread hashes the expected number of check elements is
// k²|X1||X2|/m (Eq 11/12), minimized at k = 1, which is the paper's choice
// and our default.
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

// Check-element selection (prover side, Eq 7-9 over Q filters): slot
// j is open when B(X)_j < B̂_j, where X is the claimed intersection and B̂
// the element-wise minimum of the keywords' filters B(X_1)..B(X_Q).  The
// check elements of X_i are its elements outside X that hash into an open
// slot.  The filters must share params (UsageError otherwise); `select`
// may run concurrently.
class CheckSlots {
 public:
  CheckSlots(std::span<const CountingBloom> filters, std::span<const std::uint64_t> intersection);

  [[nodiscard]] bool open(std::uint32_t slot) const { return open_[slot]; }
  // The check elements of one keyword's sorted set X_i, in its order.
  [[nodiscard]] std::vector<std::uint64_t> select(std::span<const std::uint64_t> set) const;

 private:
  CountingBloom probe_;  // hashes positions; never counts
  std::vector<std::uint64_t> intersection_;
  std::vector<bool> open_;
};

// Slot accounting (verifier side, Eq 7-9 over Q filters): B(X) <= B̂ in
// every slot, and in every open slot the disclosed check elements close the
// gap exactly in each filter, B(X)_j + B(C_i)_j = B(X_i)_j.  Reports the
// first failure in slot order.  `check_sets` pairs with `filters`, which
// must share params (UsageError otherwise).
enum class SlotAccounting { kHolds, kResultExceedsFilters, kGapNotClosed };
SlotAccounting check_slot_accounting(std::span<const CountingBloom> filters,
                                     std::span<const std::uint64_t> intersection,
                                     std::span<const std::span<const std::uint64_t>> check_sets);

// Entropy of a Poisson(load) counter in bits — H(l) in Eq 10; the expected
// compressed size of a counting filter is m * H(l) bits.
double poisson_entropy_bits(double load);

}  // namespace vc
