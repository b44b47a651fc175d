// Ranking tests: client-side scoring over verified results (§III-E).
#include <gtest/gtest.h>

#include <cmath>

#include "crypto/standard_params.hpp"
#include "search/engine.hpp"
#include "search/ranking.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

VerifiableIndexConfig tiny_config() {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 4;
  cfg.bloom = BloomParams{.counters = 128, .hashes = 1, .domain = "rank"};
  return cfg;
}

class RankingTest : public ::testing::Test {
 protected:
  RankingTest()
      : owner_ctx_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512))),
        pub_ctx_(AccumulatorContext::public_side(owner_ctx_.params())),
        pool_(2) {
    DeterministicRng rng(601);
    owner_key_ = generate_signing_key(rng, 512);
    cloud_key_ = generate_signing_key(rng, 512);
    // Controlled tf values: doc1 is clearly the best match for both terms,
    // doc3 mentions both only once; "rare" appears in few docs, "common" in
    // most — IDF should favour matches on "rare".
    Corpus corpus("rank");
    corpus.add("d0", "common common common filler");
    corpus.add("d1", "rare rare rare common common");
    corpus.add("d2", "common filler other words");
    corpus.add("d3", "rare common filler");
    corpus.add("d4", "common filler");
    corpus.add("d5", "common other filler");
    vidx_ = std::make_unique<IndexBuilder>(IndexBuilder::build(
        InvertedIndex::build(corpus), owner_ctx_, owner_key_, tiny_config(), pool_));
    engine_ = std::make_unique<SearchEngine>(vidx_->snapshot(), pub_ctx_, cloud_key_, &pool_);
  }

  MultiKeywordResponse search_both() {
    SearchResponse resp = engine_->search(
        Query{.id = 1, .keywords = {"rare", "common"}}, SchemeKind::kHybrid);
    return std::get<MultiKeywordResponse>(resp.body);
  }

  AccumulatorContext owner_ctx_;
  AccumulatorContext pub_ctx_;
  ThreadPool pool_;
  SigningKey owner_key_;
  SigningKey cloud_key_;
  std::unique_ptr<IndexBuilder> vidx_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(RankingTest, ResultDocsAreExactlyTheRankedDocs) {
  MultiKeywordResponse multi = search_both();
  auto ranked = rank_results(multi, vidx_->dict_attestation());
  EXPECT_EQ(ranked.size(), multi.result.docs.size());
  U64Set ranked_ids;
  for (const auto& rd : ranked) ranked_ids.push_back(rd.doc_id);
  std::sort(ranked_ids.begin(), ranked_ids.end());
  EXPECT_EQ(ranked_ids, multi.result.docs);
}

TEST_F(RankingTest, HeaviestTfWinsUnderEveryModel) {
  MultiKeywordResponse multi = search_both();
  for (RankingModel model :
       {RankingModel::kTfSum, RankingModel::kTfIdf, RankingModel::kBm25Lite}) {
    auto ranked = rank_results(multi, vidx_->dict_attestation(),
                               RankingOptions{.model = model});
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().doc_id, 1u)
        << "model " << static_cast<int>(model);  // d1: rare x3 + common x2
    EXPECT_GT(ranked.front().score, ranked.back().score);
  }
}

TEST_F(RankingTest, ScoresMonotoneNonIncreasing) {
  MultiKeywordResponse multi = search_both();
  auto ranked = rank_results(multi, vidx_->dict_attestation());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST_F(RankingTest, IdfUsesSignedDocumentCount) {
  EXPECT_EQ(vidx_->dict_attestation().stmt.document_count, 6u);
  // df("rare") = 2 < df("common") = 6: under TF-IDF a doc with one "rare"
  // outscores a doc with one "common".
  MultiKeywordResponse multi = search_both();
  const double n = 6;
  const double idf_rare = std::log(n / 2.0);
  const double idf_common = std::log(n / 6.0);
  EXPECT_GT(idf_rare, idf_common);
  auto ranked = rank_results(multi, vidx_->dict_attestation(),
                             RankingOptions{.model = RankingModel::kTfIdf});
  // d3 (rare:1, common:1) must outrank... only d1 and d3 contain both, so
  // the ranking has exactly two docs with d1 first.
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].doc_id, 1u);
  EXPECT_EQ(ranked[1].doc_id, 3u);
}

TEST_F(RankingTest, MalformedResponseRejected) {
  MultiKeywordResponse multi = search_both();
  multi.proof.terms.pop_back();
  EXPECT_THROW(rank_results(multi, vidx_->dict_attestation()), UsageError);
}

TEST_F(RankingTest, Bm25SaturatesTf) {
  // With k1 small, tf differences saturate: scores of tf=3 vs tf=30 close.
  MultiKeywordResponse multi = search_both();
  RankingOptions tight{.model = RankingModel::kBm25Lite, .k1 = 0.1};
  RankingOptions loose{.model = RankingModel::kBm25Lite, .k1 = 10.0};
  auto a = rank_results(multi, vidx_->dict_attestation(), tight);
  auto b = rank_results(multi, vidx_->dict_attestation(), loose);
  // Both still rank d1 first, but the tight model compresses the spread.
  EXPECT_EQ(a.front().doc_id, 1u);
  EXPECT_EQ(b.front().doc_id, 1u);
  double spread_a = a.front().score - a.back().score;
  double spread_b = b.front().score - b.back().score;
  EXPECT_LT(spread_a, spread_b);
}

TEST_F(RankingTest, RankingIsDeterministicAcrossCalls) {
  MultiKeywordResponse multi = search_both();
  for (RankingModel model :
       {RankingModel::kTfSum, RankingModel::kTfIdf, RankingModel::kBm25Lite}) {
    RankingOptions opts{.model = model};
    auto a = rank_results(multi, vidx_->dict_attestation(), opts);
    auto b = rank_results(multi, vidx_->dict_attestation(), opts);
    EXPECT_EQ(a, b) << "model " << static_cast<int>(model);
  }
}

TEST_F(RankingTest, ExactTiesBreakByAscendingDocId) {
  // Three documents with identical tf vectors for both query terms tie
  // exactly under every model; the order must then be ascending docID —
  // the determinism contract a verifiable top-k claim depends on.
  Corpus tie("tie");
  tie.add("t0", "xx yy fillera");
  tie.add("t1", "xx yy fillerb");
  tie.add("t2", "xx yy fillerc");
  IndexBuilder tied = IndexBuilder::build(InvertedIndex::build(tie), owner_ctx_,
                                          owner_key_, tiny_config(), pool_);
  SearchEngine engine(tied.snapshot(), pub_ctx_, cloud_key_, &pool_);
  SearchResponse resp =
      engine.search(Query{.id = 9, .keywords = {"xx", "yy"}}, SchemeKind::kHybrid);
  auto multi = std::get<MultiKeywordResponse>(resp.body);
  for (RankingModel model :
       {RankingModel::kTfSum, RankingModel::kTfIdf, RankingModel::kBm25Lite}) {
    auto ranked = rank_results(multi, tied.dict_attestation(),
                               RankingOptions{.model = model});
    ASSERT_EQ(ranked.size(), 3u) << "model " << static_cast<int>(model);
    EXPECT_DOUBLE_EQ(ranked[0].score, ranked[1].score);
    EXPECT_DOUBLE_EQ(ranked[1].score, ranked[2].score);
    EXPECT_EQ(ranked[0].doc_id, 0u);
    EXPECT_EQ(ranked[1].doc_id, 1u);
    EXPECT_EQ(ranked[2].doc_id, 2u);
  }
}

TEST_F(RankingTest, Bm25K1ZeroFullySaturates) {
  // k1 = 0 collapses tf(k1+1)/(tf+k1) to 1 for every tf ≥ 1: the model
  // degenerates to pure presence scoring, so d1 (rare×3) and d3 (rare×1)
  // tie exactly and fall back to docID order.
  MultiKeywordResponse multi = search_both();
  auto ranked = rank_results(multi, vidx_->dict_attestation(),
                             RankingOptions{.model = RankingModel::kBm25Lite, .k1 = 0.0});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(ranked[0].score, ranked[1].score);
  EXPECT_EQ(ranked[0].doc_id, 1u);
  EXPECT_EQ(ranked[1].doc_id, 3u);
}

TEST_F(RankingTest, DfEqualToCorpusSizeContributesNothing) {
  // df("common") = 6 = N ⇒ idf = ln(1) = 0: under TF-IDF the whole score is
  // the rare term's, so the signed-statement arithmetic is checkable in
  // closed form.
  MultiKeywordResponse multi = search_both();
  const double idf_rare = std::log(6.0 / 2.0);
  auto ranked = rank_results(multi, vidx_->dict_attestation(),
                             RankingOptions{.model = RankingModel::kTfIdf});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(ranked[0].score, 3.0 * idf_rare);  // d1: rare x3
  EXPECT_DOUBLE_EQ(ranked[1].score, 1.0 * idf_rare);  // d3: rare x1
}

TEST(TopkByTf, TiesBreakByAscendingDocIdAndKClamps) {
  // The provable server-side top-k (proof_types) must agree with the
  // client-side tie-break convention: score descending, docID ascending.
  U64Set docs{1, 2, 3, 4};
  std::vector<PostingList> postings(1);
  postings[0] = {Posting{1, 2}, Posting{2, 5}, Posting{3, 2}, Posting{4, 5}};
  auto top = topk_by_tf(docs, postings, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (TopKEntry{2, 5}));  // ties at 5: doc 2 before doc 4
  EXPECT_EQ(top[1], (TopKEntry{4, 5}));
  EXPECT_EQ(top[2], (TopKEntry{1, 2}));  // ties at 2: doc 1 before doc 3
  // k past the result size returns everything; k = 0 returns nothing.
  EXPECT_EQ(topk_by_tf(docs, postings, 99).size(), 4u);
  EXPECT_TRUE(topk_by_tf(docs, postings, 0).empty());
  // A doc in the result with no posting for any term scores zero but stays.
  U64Set with_zero{1, 2, 7};
  auto zero = topk_by_tf(with_zero, postings, 3);
  ASSERT_EQ(zero.size(), 3u);
  EXPECT_EQ(zero[2], (TopKEntry{7, 0}));
  // Scores sum across terms.
  std::vector<PostingList> two(2);
  two[0] = {Posting{1, 2}};
  two[1] = {Posting{1, 3}, Posting{2, 4}};
  auto summed = topk_by_tf(U64Set{1, 2}, two, 2);
  EXPECT_EQ(summed[0], (TopKEntry{1, 5}));
  EXPECT_EQ(summed[1], (TopKEntry{2, 4}));
}

}  // namespace
}  // namespace vc
