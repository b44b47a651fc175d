#include "interval/dict_intervals.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace vc {

void GapProof::write(ByteWriter& w) const {
  w.str(lo);
  w.str(hi);
  witness.write(w);
}

GapProof GapProof::read(ByteReader& r) {
  GapProof p;
  p.lo = r.str();
  p.hi = r.str();
  p.witness = Bigint::read(r);
  return p;
}

std::size_t GapProof::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

PrimeRepGenerator DictionaryIntervals::gap_generator(const PrimeRepConfig& base_config) {
  PrimeRepConfig cfg = base_config;
  cfg.domain = base_config.domain + "/dict-gap";
  return PrimeRepGenerator(cfg);
}

Bigint DictionaryIntervals::gap_representative(const PrimeRepGenerator& gen,
                                               std::string_view lo, std::string_view hi) {
  ByteWriter w;
  w.str(lo);
  w.str(hi);
  return gen.representative(w.data());
}

DictionaryIntervals DictionaryIntervals::build(const AccumulatorContext& ctx,
                                               std::vector<std::string> sorted_words,
                                               const PrimeRepConfig& base_config) {
  for (std::size_t i = 0; i < sorted_words.size(); ++i) {
    if (sorted_words[i].empty() || sorted_words[i] >= kPlusInf) {
      throw UsageError("dictionary words must be non-empty and below the +inf sentinel");
    }
    if (i > 0 && sorted_words[i] <= sorted_words[i - 1]) {
      throw UsageError("dictionary words must be strictly increasing");
    }
  }

  DictionaryIntervals dict;
  dict.words_ = std::move(sorted_words);
  PrimeRepGenerator gen = gap_generator(base_config);

  const std::size_t gaps = dict.words_.size() + 1;
  auto bound = [&](std::size_t i) -> std::string_view {
    // Gap i = (w_{i-1}, w_i) with sentinels at both ends.
    if (i == 0) return std::string_view();
    if (i > dict.words_.size()) return kPlusInf;
    return dict.words_[i - 1];
  };
  std::vector<Bigint> reps;
  reps.reserve(gaps);
  for (std::size_t i = 0; i < gaps; ++i) {
    reps.push_back(gap_representative(gen, bound(i), bound(i + 1)));
  }
  dict.root_ = ctx.accumulate(reps);

  // Prefix/suffix sweep for all gap witnesses (same technique as the
  // interval middle layer).
  const bool trapdoor = ctx.power().has_trapdoor();
  auto reduce = [&](const Bigint& x) {
    return trapdoor ? Bigint::mod(x, ctx.power().phi()) : x;
  };
  std::vector<Bigint> prefix(gaps + 1, Bigint(1)), suffix(gaps + 1, Bigint(1));
  for (std::size_t i = 0; i < gaps; ++i) prefix[i + 1] = reduce(prefix[i] * reps[i]);
  for (std::size_t i = gaps; i-- > 0;) suffix[i] = reduce(suffix[i + 1] * reps[i]);
  dict.gap_witnesses_.reserve(gaps);
  for (std::size_t i = 0; i < gaps; ++i) {
    dict.gap_witnesses_.push_back(ctx.power().pow(ctx.g(), reduce(prefix[i] * suffix[i + 1])));
  }
  return dict;
}

void DictionaryIntervals::write(ByteWriter& w) const {
  w.str("vc.dict-intervals.v1");
  root_.write(w);
  w.varint(words_.size());
  for (const auto& word : words_) w.str(word);
  w.varint(gap_witnesses_.size());
  for (const auto& witness : gap_witnesses_) witness.write(w);
}

DictionaryIntervals DictionaryIntervals::read(ByteReader& r) {
  if (r.str() != "vc.dict-intervals.v1") throw ParseError("bad dict-intervals tag");
  DictionaryIntervals dict;
  dict.root_ = Bigint::read(r);
  const std::size_t nw = r.count(1);  // length-prefixed words
  dict.words_.reserve(nw);
  for (std::size_t i = 0; i < nw; ++i) dict.words_.push_back(r.str());
  const std::size_t ng = r.count(Bigint::kMinEncodedBytes);
  if (ng != nw + 1) throw ParseError("dict-intervals gap count mismatch");
  dict.gap_witnesses_.reserve(ng);
  for (std::size_t i = 0; i < ng; ++i) dict.gap_witnesses_.push_back(Bigint::read(r));
  return dict;
}

bool DictionaryIntervals::contains(std::string_view word) const {
  return std::binary_search(words_.begin(), words_.end(), word);
}

GapProof DictionaryIntervals::prove_unknown(std::string_view word) const {
  if (word.empty() || word >= kPlusInf) throw UsageError("word outside proving domain");
  // Gap index = number of dictionary words < word.
  auto it = std::lower_bound(words_.begin(), words_.end(), word);
  if (it != words_.end() && *it == word) {
    throw UsageError("prove_unknown: word is in the dictionary");
  }
  std::size_t gap = static_cast<std::size_t>(it - words_.begin());
  GapProof p;
  p.lo = gap == 0 ? std::string() : words_[gap - 1];
  p.hi = gap == words_.size() ? std::string(kPlusInf) : words_[gap];
  p.witness = gap_witnesses_[gap];
  return p;
}

bool DictionaryIntervals::verify_unknown(const Bigint& root, std::string_view word,
                                         const GapProof& proof,
                                         const PrimeRepConfig& base_config, VerifyBatch& batch,
                                         const char* failure) {
  // The word must lie strictly inside the disclosed gap...
  if (!(proof.lo < word && word < proof.hi)) return false;
  // ...and the gap must be one the owner accumulated.
  PrimeRepGenerator gen = gap_generator(base_config);
  const Bigint rep = gap_representative(gen, proof.lo, proof.hi);
  batch.add_membership(root, proof.witness, std::span<const Bigint>(&rep, 1), failure);
  return true;
}

bool DictionaryIntervals::verify_unknown(const AccumulatorContext& ctx, const Bigint& root,
                                         std::string_view word, const GapProof& proof,
                                         const PrimeRepConfig& base_config) {
  VerifyBatch batch(ctx);
  return verify_unknown(root, word, proof, base_config, batch, "gap proof invalid") &&
         batch.holds();
}

}  // namespace vc
