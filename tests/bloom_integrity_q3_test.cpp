// Regression tests for Bloom integrity with three keywords.
//
// With Q >= 3 an honest cloud's check sets C_i may overlap: a document in
// X1 ∩ X2 but not X3 is a check element for BOTH X1 and X2.  The verifier
// must accept that — while still rejecting an element present in *all*
// check sets (the signature of a hidden result).  A tiny Bloom filter
// (m = 2) forces every slot open so the overlap occurs deterministically.
#include <gtest/gtest.h>

#include "crypto/standard_params.hpp"
#include "search/engine.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

VerifiableIndexConfig tiny_bloom_config() {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 4;
  cfg.bloom = BloomParams{.counters = 2, .hashes = 1, .domain = "q3"};
  return cfg;
}

class BloomQ3Test : public ::testing::Test {
 protected:
  BloomQ3Test()
      : owner_ctx_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512))),
        pub_ctx_(AccumulatorContext::public_side(owner_ctx_.params())),
        pool_(2) {
    DeterministicRng rng(301);
    owner_key_ = generate_signing_key(rng, 512);
    cloud_key_ = generate_signing_key(rng, 512);
    // Corpus engineered so "alpha beta gamma" has a nonempty intersection
    // and docs that lie in exactly two of the three sets (overlap fodder).
    Corpus corpus("q3");
    corpus.add("d0", "alpha beta gamma");   // in all three
    corpus.add("d1", "alpha beta delta");   // in C_alpha and C_beta
    corpus.add("d2", "alpha gamma delta");  // in C_alpha and C_gamma
    corpus.add("d3", "beta gamma delta");   // in C_beta and C_gamma
    corpus.add("d4", "alpha beta gamma");   // in all three
    corpus.add("d5", "alpha delta");
    corpus.add("d6", "beta delta");
    vidx_ = std::make_unique<IndexBuilder>(IndexBuilder::build(
        InvertedIndex::build(corpus), owner_ctx_, owner_key_, tiny_bloom_config(), pool_));
    engine_ = std::make_unique<SearchEngine>(vidx_->snapshot(), pub_ctx_, cloud_key_, &pool_);
    verifier_ = std::make_unique<ResultVerifier>(owner_ctx_, owner_key_.verify_key(),
                                                 cloud_key_.verify_key(),
                                                 tiny_bloom_config());
  }

  AccumulatorContext owner_ctx_;
  AccumulatorContext pub_ctx_;
  ThreadPool pool_;
  SigningKey owner_key_;
  SigningKey cloud_key_;
  std::unique_ptr<IndexBuilder> vidx_;
  std::unique_ptr<SearchEngine> engine_;
  std::unique_ptr<ResultVerifier> verifier_;
};

TEST_F(BloomQ3Test, HonestOverlappingCheckSetsAccepted) {
  Query q{.id = 1, .keywords = {"alpha", "beta", "gamma"}};
  SearchResponse resp = engine_->search(q, SchemeKind::kBloom);
  const auto& multi = std::get<MultiKeywordResponse>(resp.body);
  EXPECT_EQ(multi.result.docs, (U64Set{0, 4}));
  const auto& integrity = std::get<BloomIntegrity>(multi.proof.integrity);
  // The overlap actually occurs (otherwise this test guards nothing).
  bool overlap = false;
  for (std::size_t i = 0; i < 3 && !overlap; ++i) {
    for (std::size_t j = i + 1; j < 3 && !overlap; ++j) {
      overlap = !sets_disjoint(integrity.parts[i].check_elements,
                               integrity.parts[j].check_elements);
    }
  }
  EXPECT_TRUE(overlap);
  EXPECT_NO_THROW(verifier_->verify(resp));
}

TEST_F(BloomQ3Test, HiddenResultAppearsInAllCheckSetsAndIsRejected) {
  Query q{.id = 2, .keywords = {"alpha", "beta", "gamma"}};
  SearchResult honest = engine_->execute_only(q);
  ASSERT_EQ(honest.docs.size(), 2u);
  // The cloud hides doc 4 and regenerates the Bloom proof for the lie.
  SearchResult cheat = honest;
  cheat.docs = {0};
  for (std::size_t i = 0; i < cheat.postings.size(); ++i) {
    cheat.postings[i] = InvertedIndex::filter_by_docs(
        vidx_->find(cheat.keywords[i])->postings, cheat.docs);
  }
  Prover prover(vidx_->snapshot(), pub_ctx_, &pool_);
  SearchResponse resp;
  resp.query_id = 2;
  resp.raw_keywords = q.keywords;
  MultiKeywordResponse body;
  body.result = cheat;
  body.proof = prover.prove(cheat, SchemeKind::kBloom);
  // The regenerated check sets all contain the hidden doc...
  const auto& integrity = std::get<BloomIntegrity>(body.proof.integrity);
  for (const auto& part : integrity.parts) {
    EXPECT_TRUE(std::binary_search(part.check_elements.begin(),
                                   part.check_elements.end(), std::uint64_t{4}));
  }
  // ...which is exactly what the verifier rejects.
  resp.body = std::move(body);
  resp.cloud_sig = cloud_key_.sign(resp.payload_bytes());
  EXPECT_THROW(verifier_->verify(resp), VerifyError);
}

TEST_F(BloomQ3Test, TwoKeywordDisjointnessStillEnforced) {
  Query q{.id = 3, .keywords = {"alpha", "beta"}};
  SearchResponse resp = engine_->search(q, SchemeKind::kBloom);
  EXPECT_NO_THROW(verifier_->verify(resp));
  // Inject a common element into both check sets: for Q = 2 the "in every
  // check set" rule is pairwise disjointness and must reject.
  auto& multi = std::get<MultiKeywordResponse>(resp.body);
  auto& integrity = std::get<BloomIntegrity>(multi.proof.integrity);
  ASSERT_FALSE(integrity.parts[0].check_elements.empty());
  std::uint64_t e = integrity.parts[0].check_elements[0];
  auto& c2 = integrity.parts[1].check_elements;
  if (!std::binary_search(c2.begin(), c2.end(), e)) {
    c2.insert(std::lower_bound(c2.begin(), c2.end(), e), e);
  }
  resp.cloud_sig = cloud_key_.sign(resp.payload_bytes());
  EXPECT_THROW(verifier_->verify(resp), VerifyError);
}

}  // namespace
}  // namespace vc
