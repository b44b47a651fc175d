// Two-party protocol + third-party arbitration + HTTP frontend tests.
#include <gtest/gtest.h>

#include "data/testbed.hpp"
#include "protocol/arbiter.hpp"
#include "protocol/cloud.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "support/errors.hpp"
#include "text/stemmer.hpp"

namespace vc {
namespace {

TestbedOptions small_testbed_options() {
  TestbedOptions opts;
  opts.corpus = SynthSpec{.name = "proto", .num_docs = 50, .min_doc_words = 25,
                          .max_doc_words = 60, .vocab_size = 250, .zipf_s = 0.9, .seed = 31};
  opts.index.modulus_bits = 512;
  opts.index.rep_bits = 64;
  opts.index.interval_size = 8;
  opts.index.bloom = BloomParams{.counters = 512, .hashes = 1, .domain = "vc.bloom.docs"};
  opts.pool_workers = 2;
  return opts;
}

// The cheats a dishonest cloud commits: tamper with the honest response's
// results, then re-sign the payload with the cloud's own key, so only the
// proofs can give it away.
SearchResponse cheat(SearchResponse resp, const SigningKey& cloud_key,
                     void (*tamper)(SearchResult&)) {
  tamper(std::get<MultiKeywordResponse>(resp.body).result);
  resp.cloud_sig = cloud_key.sign(resp.payload_bytes());
  return resp;
}

// Returns a partial result (the economic-incentive cheat).
void drop_last_result(SearchResult& result) {
  ASSERT_FALSE(result.docs.empty());
  std::uint64_t hidden = result.docs.back();
  result.docs.pop_back();
  for (auto& postings : result.postings) {
    if (!postings.empty() && postings.back().doc_id == hidden) postings.pop_back();
  }
}

// Tampers with a tf weight in the results.
void inflate_weight(SearchResult& result) {
  ASSERT_FALSE(result.postings.empty() || result.postings[0].empty());
  result.postings[0][0].tf += 100;
}

class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new Testbed(small_testbed_options());
    cloud_ = new CloudService(bed_->vindex().snapshot(), bed_->public_ctx(), bed_->cloud_key(),
                              bed_->owner_key().verify_key(), &bed_->pool());
    arbiter_ = new ThirdPartyArbiter(bed_->public_ctx(), bed_->owner_key().verify_key(),
                                     bed_->cloud_key().verify_key(),
                                     bed_->options().index);
  }
  static void TearDownTestSuite() {
    delete arbiter_;
    delete cloud_;
    delete bed_;
  }

  static DataOwner make_owner() {
    return DataOwner(bed_->owner_ctx(), bed_->owner_key(),
                     bed_->cloud_key().verify_key(), bed_->options().index);
  }

  static std::vector<std::string> two_terms() {
    return {synth_word(bed_->options().corpus, 0), synth_word(bed_->options().corpus, 1)};
  }

  static Testbed* bed_;
  static CloudService* cloud_;
  static ThirdPartyArbiter* arbiter_;
};

Testbed* ProtocolTest::bed_ = nullptr;
CloudService* ProtocolTest::cloud_ = nullptr;
ThirdPartyArbiter* ProtocolTest::arbiter_ = nullptr;

TEST_F(ProtocolTest, HonestExchangeVerifies) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  EXPECT_NO_THROW(owner.receive_response(resp));
  EXPECT_EQ(owner.transcripts().size(), 1u);
}

TEST_F(ProtocolTest, CloudRejectsUnsignedQuery) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  q.owner_sig.s += Bigint(1);
  EXPECT_THROW((void)cloud_->handle(q), VerifyError);
}

TEST_F(ProtocolTest, DroppedResultCaughtAndArbitrated) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cheat(cloud_->handle(q), bed_->cloud_key(), drop_last_result);
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
  // The owner proves the cloud's error to a third party.
  const Transcript& evidence = owner.transcript_for(q.query.id);
  EXPECT_EQ(arbiter_->arbitrate(evidence), Ruling::kCloudCheated);
  EXPECT_FALSE(arbiter_->last_reason().empty());
}

TEST_F(ProtocolTest, InflatedWeightCaughtAndArbitrated) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cheat(cloud_->handle(q), bed_->cloud_key(), inflate_weight);
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
  EXPECT_EQ(arbiter_->arbitrate(owner.transcript_for(q.query.id)), Ruling::kCloudCheated);
}

TEST_F(ProtocolTest, FalseAccusationDismissed) {
  // The owner presents a perfectly valid transcript claiming cloud fraud;
  // the arbiter dismisses it (the cloud can't be framed, §III-F).
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  owner.receive_response(resp);
  EXPECT_EQ(arbiter_->arbitrate(owner.transcript_for(q.query.id)), Ruling::kResponseValid);
}

TEST_F(ProtocolTest, ForgedQueryRuledAgainstOwner) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  Transcript forged{q, resp};
  forged.query.query.keywords.push_back("injected");  // signature now stale
  EXPECT_EQ(arbiter_->arbitrate(forged), Ruling::kQueryForged);
}

TEST_F(ProtocolTest, MismatchedTranscriptDetected) {
  DataOwner owner = make_owner();
  SignedQuery q1 = owner.issue_query(two_terms());
  SignedQuery q2 = owner.issue_query({two_terms()[0]});
  SearchResponse resp2 = cloud_->handle(q2);
  Transcript mixed{q1, resp2};  // response answers a different query
  EXPECT_EQ(arbiter_->arbitrate(mixed), Ruling::kMismatched);
}

TEST_F(ProtocolTest, OwnerRejectsResponseToUnknownQuery) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  resp.query_id = 999;
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
}

TEST_F(ProtocolTest, HttpRoundtrip) {
  HttpFrontend frontend(*cloud_);
  frontend.start();
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = http_search(frontend.port(), q);
  EXPECT_NO_THROW(owner.receive_response(resp));
  EXPECT_EQ(http_request(frontend.port(), "GET", "/healthz", ""), "ok\n");
  std::string stats = http_request(frontend.port(), "GET", "/stats", "");
  EXPECT_NE(stats.find("\"queries_served\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"uptime_seconds\""), std::string::npos);
  std::string metrics = http_request(frontend.port(), "GET", "/metrics", "");
  EXPECT_NE(metrics.find("# TYPE vc_cloud_queries_total counter"), std::string::npos);
  EXPECT_NE(metrics.find("vc_stage_seconds_bucket"), std::string::npos);
  frontend.stop();
}

TEST_F(ProtocolTest, HttpRejectsBadRequests) {
  HttpFrontend frontend(*cloud_);
  frontend.start();
  EXPECT_THROW((void)http_request(frontend.port(), "POST", "/search", "nothex!"), Error);
  EXPECT_THROW((void)http_request(frontend.port(), "GET", "/bogus", ""), Error);
  frontend.stop();
}

TEST_F(ProtocolTest, SignedQuerySerializationRoundtrip) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query({"alpha", "beta"});
  ByteWriter w;
  q.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(SignedQuery::read(r), q);
}

// --- workload shape -------------------------------------------------------------

TEST(Workload, PaperMixShape) {
  SynthSpec spec{.name = "w", .num_docs = 100, .vocab_size = 1000, .seed = 7};
  auto workload = paper_query_workload(spec);
  ASSERT_EQ(workload.size(), 24u);
  int singles = 0, twos = 0, threes = 0, unknowns = 0;
  for (const auto& wq : workload) {
    if (wq.keyword_count == 1) ++singles;
    if (wq.keyword_count == 2) ++twos;
    if (wq.keyword_count == 3) ++threes;
    if (wq.has_unknown) ++unknowns;
  }
  EXPECT_EQ(singles, 2);
  EXPECT_EQ(twos, 16);
  EXPECT_EQ(threes, 6);
  EXPECT_EQ(unknowns, 2);
}

TEST(Workload, MultiKeywordQueriesHaveDistinctKeywords) {
  SynthSpec spec{.name = "w2", .num_docs = 100, .vocab_size = 1000, .seed = 8};
  for (const auto& wq : paper_query_workload(spec)) {
    std::set<std::string> uniq(wq.query.keywords.begin(), wq.query.keywords.end());
    EXPECT_EQ(uniq.size(), wq.query.keywords.size());
  }
}

TEST(Workload, KnownMultiFilter) {
  SynthSpec spec{.name = "w3", .num_docs = 100, .vocab_size = 1000, .seed = 9};
  auto workload = paper_query_workload(spec);
  auto multi = known_multi_queries(workload);
  EXPECT_EQ(multi.size(), 20u);  // 15 two-keyword + 5 three-keyword known
  for (const auto& q : multi) EXPECT_GE(q.keywords.size(), 2u);
}

TEST(Workload, Deterministic) {
  SynthSpec spec{.name = "w4", .num_docs = 100, .vocab_size = 1000, .seed = 10};
  auto a = paper_query_workload(spec);
  auto b = paper_query_workload(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].query, b[i].query);
}

}  // namespace
}  // namespace vc
