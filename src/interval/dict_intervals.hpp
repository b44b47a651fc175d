// Dictionary gap intervals for unknown search keywords (§III-D4, Fig 7).
//
// A flat nonmembership witness over the whole dictionary takes seconds for
// 50k words.  Instead the owner accumulates prime representatives of the
// |W|+1 *gaps* (w_i, w_{i+1}) between consecutive sorted dictionary words
// (with -inf / +inf sentinels).  Proving "w is unknown" then reduces to a
// binary search for the enclosing gap and returning its pre-computed
// constant-size membership witness — O(log |W|) online, sub-millisecond.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "accumulator/verify_batch.hpp"
#include "accumulator/witness.hpp"
#include "primes/prime_rep.hpp"

namespace vc {

// Proof that a word lies strictly inside an accumulated dictionary gap.
struct GapProof {
  std::string lo;  // empty string encodes -inf
  std::string hi;  // "\xff\xff" sentinel encodes +inf (words are ASCII)
  Bigint witness;  // membership witness of the gap in the dictionary root

  void write(ByteWriter& w) const;
  static GapProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

class DictionaryIntervals {
 public:
  // Empty dictionary structure; assign from build() before use.
  DictionaryIntervals() = default;

  // The +inf sentinel; tokenized words never contain bytes >= 0x80, so this
  // compares greater than every real word.
  static constexpr std::string_view kPlusInf = "\xff\xff";

  // `sorted_words` must be strictly increasing, non-empty strings that are
  // lexicographically smaller than kPlusInf.
  static DictionaryIntervals build(const AccumulatorContext& ctx,
                                   std::vector<std::string> sorted_words,
                                   const PrimeRepConfig& base_config);

  // Root accumulator over all gap representatives; the owner signs this.
  [[nodiscard]] const Bigint& root() const { return root_; }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }
  [[nodiscard]] bool contains(std::string_view word) const;

  // Constant-size unknown-keyword proof (throws UsageError if the word is
  // actually in the dictionary).  O(log |W|).
  [[nodiscard]] GapProof prove_unknown(std::string_view word) const;

  // Public-side check: word strictly inside (lo, hi) and the gap belongs to
  // the signed root.  The batch form returns false when the word is outside
  // the gap and records the gap's membership in `batch` under `failure`.
  static bool verify_unknown(const Bigint& root, std::string_view word, const GapProof& proof,
                             const PrimeRepConfig& base_config, VerifyBatch& batch,
                             const char* failure);
  static bool verify_unknown(const AccumulatorContext& ctx, const Bigint& root,
                             std::string_view word, const GapProof& proof,
                             const PrimeRepConfig& base_config);

  // Gap prime representative (shared by build and verify).
  static Bigint gap_representative(const PrimeRepGenerator& gen, std::string_view lo,
                                   std::string_view hi);
  static PrimeRepGenerator gap_generator(const PrimeRepConfig& base_config);

  // Full-structure serialization (uploaded with the verifiable index).
  void write(ByteWriter& w) const;
  static DictionaryIntervals read(ByteReader& r);
  friend bool operator==(const DictionaryIntervals&, const DictionaryIntervals&) = default;

 private:
  std::vector<std::string> words_;       // sorted
  std::vector<Bigint> gap_witnesses_;    // witness for gap i = (w_i, w_{i+1})
  Bigint root_;
};

}  // namespace vc
