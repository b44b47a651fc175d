// End-to-end tests of the four schemes: cloud-side proof generation with
// public parameters, owner-side and third-party verification, and the
// tamper/cheating scenarios the scheme must catch.
#include <gtest/gtest.h>

#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"

namespace vc {
namespace {

constexpr SchemeKind kAllSchemes[] = {SchemeKind::kAccumulator, SchemeKind::kBloom,
                                      SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid};

class SearchProofTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "sp", .num_docs = 80, .min_doc_words = 30,
                   .max_doc_words = 90, .vocab_size = 300, .zipf_s = 0.9, .seed = 21};
    bed_ = new testbed::TestBed(spec, testbed::small_config(), /*key_seed=*/201);
    // The cloud engine runs with PUBLIC parameters only.
    engine_ = new SearchEngine(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
    owner_verifier_ = new ResultVerifier(bed_->owner_verifier());
    third_party_verifier_ = new ResultVerifier(bed_->third_party_verifier());
  }
  static void TearDownTestSuite() {
    delete third_party_verifier_;
    delete owner_verifier_;
    delete engine_;
    delete bed_;
  }

  // Two frequent terms guaranteed to co-occur in this Zipf corpus.
  static std::vector<std::string> frequent_terms(std::size_t n) {
    return bed_->frequent_terms(n);
  }

  static Query make_query(std::vector<std::string> kws, std::uint64_t id = 1) {
    return testbed::TestBed::make_query(std::move(kws), id);
  }

  static testbed::TestBed* bed_;
  static SearchEngine* engine_;
  static ResultVerifier* owner_verifier_;
  static ResultVerifier* third_party_verifier_;
};

testbed::TestBed* SearchProofTest::bed_ = nullptr;
SearchEngine* SearchProofTest::engine_ = nullptr;
ResultVerifier* SearchProofTest::owner_verifier_ = nullptr;
ResultVerifier* SearchProofTest::third_party_verifier_ = nullptr;

TEST_F(SearchProofTest, AllSchemesProveAndVerifyTwoKeywords) {
  auto terms = frequent_terms(2);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp = engine_->search(make_query(terms), scheme);
    const auto& multi = std::get<MultiKeywordResponse>(resp.body);
    EXPECT_FALSE(multi.result.docs.empty()) << scheme_name(scheme);
    EXPECT_NO_THROW(owner_verifier_->verify(resp)) << scheme_name(scheme);
    EXPECT_NO_THROW(third_party_verifier_->verify(resp)) << scheme_name(scheme);
  }
}

TEST_F(SearchProofTest, AllSchemesThreeKeywords) {
  auto terms = frequent_terms(3);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp = engine_->search(make_query(terms), scheme);
    EXPECT_NO_THROW(owner_verifier_->verify(resp)) << scheme_name(scheme);
  }
}

TEST_F(SearchProofTest, EmptyIntersectionVerifies) {
  // Two rare terms that never co-occur (rare ranks in a small corpus).
  std::vector<std::string> rare;
  for (std::uint32_t rank = 250; rank > 0 && rare.size() < 2; --rank) {
    std::string w = synth_word(bed_->spec, rank);
    const auto* e = bed_->vidx.find(porter_stem(w));
    if (e != nullptr && e->postings.size() <= 2) rare.push_back(w);
  }
  ASSERT_EQ(rare.size(), 2u);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp = engine_->search(make_query(rare), scheme);
    const auto* multi = std::get_if<MultiKeywordResponse>(&resp.body);
    ASSERT_NE(multi, nullptr);
    if (multi->result.docs.empty()) {
      EXPECT_NO_THROW(owner_verifier_->verify(resp)) << scheme_name(scheme);
    }
  }
}

TEST_F(SearchProofTest, SingleKeywordSignatureFallback) {
  auto terms = frequent_terms(1);
  SearchResponse resp = engine_->search(make_query({terms[0]}), SchemeKind::kHybrid);
  const auto* single = std::get_if<SingleKeywordResponse>(&resp.body);
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(single->postings.size(), bed_->vidx.find(single->keyword)->postings.size());
  EXPECT_NO_THROW(owner_verifier_->verify(resp));
  EXPECT_NO_THROW(third_party_verifier_->verify(resp));
}

TEST_F(SearchProofTest, UnknownKeywordGapProof) {
  SearchResponse resp =
      engine_->search(make_query({"qqzzyyxx", frequent_terms(1)[0]}), SchemeKind::kHybrid);
  const auto* unknown = std::get_if<UnknownKeywordResponse>(&resp.body);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->keyword, "qqzzyyxx");
  EXPECT_NO_THROW(owner_verifier_->verify(resp));
  EXPECT_NO_THROW(third_party_verifier_->verify(resp));
}

TEST_F(SearchProofTest, ResponseSerializationRoundtrip) {
  auto terms = frequent_terms(2);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp = engine_->search(make_query(terms), scheme);
    ByteWriter w;
    resp.write(w);
    ByteReader r(w.data());
    SearchResponse round = SearchResponse::read(r);
    r.expect_done();
    EXPECT_NO_THROW(owner_verifier_->verify(round)) << scheme_name(scheme);
    EXPECT_EQ(round.proof_size_bytes(), resp.proof_size_bytes());
  }
}

TEST_F(SearchProofTest, ProofSizesDifferAcrossSchemes) {
  auto terms = frequent_terms(2);
  std::map<SchemeKind, std::size_t> sizes;
  for (SchemeKind scheme : kAllSchemes) {
    sizes[scheme] = engine_->search(make_query(terms), scheme).proof_size_bytes();
    EXPECT_GT(sizes[scheme], 0u);
  }
  // Interval evidence carries per-interval descriptors, so interval forms
  // are larger than flat forms for the same integrity encoding (Fig 6).
  EXPECT_GT(sizes[SchemeKind::kIntervalAccumulator], sizes[SchemeKind::kAccumulator]);
}

// --- cheating cloud scenarios ---------------------------------------------------

TEST_F(SearchProofTest, DroppedResultDetected) {
  // The cloud hides one matching document and regenerates "proofs" for the
  // truncated result.  Every scheme must reject at verification.
  auto terms = frequent_terms(2);
  SearchResult honest = engine_->execute_only(make_query(terms));
  ASSERT_GT(honest.docs.size(), 1u);
  SearchResult cheat = honest;
  std::uint64_t hidden = cheat.docs.back();
  cheat.docs.pop_back();
  for (auto& postings : cheat.postings) {
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [&](const Posting& p) { return p.doc_id == hidden; }),
                   postings.end());
  }
  Prover prover(bed_->vidx.snapshot(), bed_->pub_ctx, &bed_->pool);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp;
    resp.query_id = 99;
    resp.raw_keywords = terms;
    MultiKeywordResponse body;
    body.result = cheat;
    // Accumulator-form integrity cannot even be generated for the lie: the
    // hidden doc is in every keyword set, so the nonmembership witness
    // construction fails.  Bloom-form integrity generates but must be
    // rejected at verification.  (Hybrid may take either path.)
    try {
      body.proof = prover.prove(cheat, scheme);
    } catch (const Error&) {
      continue;  // refused at generation time — detection succeeded
    }
    resp.body = std::move(body);
    resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
    EXPECT_THROW(owner_verifier_->verify(resp), VerifyError) << scheme_name(scheme);
  }
}

TEST_F(SearchProofTest, DroppedCheckDocDetected) {
  // Accumulator integrity: cloud also censors the hidden doc from the
  // check set — the posting-count pin catches it.
  auto terms = frequent_terms(2);
  SearchResponse resp = engine_->search(make_query(terms), SchemeKind::kIntervalAccumulator);
  auto& multi = std::get<MultiKeywordResponse>(resp.body);
  ASSERT_GT(multi.result.docs.size(), 0u);
  auto& integrity = std::get<AccumulatorIntegrity>(multi.proof.integrity);
  // Drop one result doc (and its postings) without touching the proof.
  std::uint64_t hidden = multi.result.docs.back();
  multi.result.docs.pop_back();
  for (auto& postings : multi.result.postings) {
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [&](const Posting& p) { return p.doc_id == hidden; }),
                   postings.end());
  }
  (void)integrity;
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, ForgedExtraResultDetected) {
  // The cloud inserts a document that does NOT contain all keywords.
  auto terms = frequent_terms(2);
  SearchResult honest = engine_->execute_only(make_query(terms));
  // Find a doc in keyword 0's list but not in the intersection.
  U64Set docs0 = InvertedIndex::doc_set(bed_->vidx.find(honest.keywords[0])->postings);
  U64Set extras = set_difference(docs0, honest.docs);
  ASSERT_FALSE(extras.empty());
  std::uint64_t forged = extras.front();
  SearchResult cheat = honest;
  cheat.docs = set_union(cheat.docs, U64Set{forged});
  for (std::size_t i = 0; i < cheat.postings.size(); ++i) {
    cheat.postings[i] = InvertedIndex::filter_by_docs(
        bed_->vidx.find(cheat.keywords[i])->postings, cheat.docs);
    if (cheat.postings[i].size() != cheat.docs.size()) {
      // Keyword i genuinely lacks the forged doc; fabricate a posting.
      PostingList fixed;
      std::size_t k = 0;
      for (std::uint64_t d : cheat.docs) {
        if (k < cheat.postings[i].size() && cheat.postings[i][k].doc_id == d) {
          fixed.push_back(cheat.postings[i][k++]);
        } else {
          fixed.push_back(Posting{static_cast<std::uint32_t>(d), 1});
        }
      }
      cheat.postings[i] = fixed;
    }
  }
  Prover prover(bed_->vidx.snapshot(), bed_->pub_ctx, &bed_->pool);
  for (SchemeKind scheme : kAllSchemes) {
    SearchResponse resp;
    resp.query_id = 100;
    resp.raw_keywords = terms;
    MultiKeywordResponse body;
    body.result = cheat;
    try {
      body.proof = prover.prove(cheat, scheme);
    } catch (const Error&) {
      continue;  // cannot even forge a proof — acceptable
    }
    resp.body = std::move(body);
    resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
    EXPECT_THROW(owner_verifier_->verify(resp), VerifyError) << scheme_name(scheme);
  }
}

TEST_F(SearchProofTest, TamperedSignatureDetected) {
  auto terms = frequent_terms(2);
  SearchResponse resp = engine_->search(make_query(terms), SchemeKind::kHybrid);
  resp.query_id += 1;  // payload changed, signature now stale
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, SwappedAttestationDetected) {
  auto terms = frequent_terms(2);
  SearchResponse resp = engine_->search(make_query(terms), SchemeKind::kHybrid);
  auto& multi = std::get<MultiKeywordResponse>(resp.body);
  // Replace keyword 0's attestation with some other term's (validly signed!).
  for (const auto& term : bed_->vidx.index().dictionary()) {
    if (term != multi.result.keywords[0]) {
      multi.proof.terms[0] = bed_->vidx.find(term)->attestation;
      break;
    }
  }
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, TamperedTfWeightDetected) {
  // Correctness proofs cover (docID, tf) tuples: inflating a weight breaks
  // tuple membership.
  auto terms = frequent_terms(2);
  SearchResponse resp = engine_->search(make_query(terms), SchemeKind::kHybrid);
  auto& multi = std::get<MultiKeywordResponse>(resp.body);
  ASSERT_FALSE(multi.result.postings[0].empty());
  multi.result.postings[0][0].tf += 7;
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, UnknownKeywordForgedGapDetected) {
  auto terms = frequent_terms(1);
  SearchResponse resp = engine_->search(make_query({"qqzzyyxx"}), SchemeKind::kHybrid);
  auto& unknown = std::get<UnknownKeywordResponse>(resp.body);
  // Claim a *known* term is unknown using the same (validly signed) root.
  unknown.keyword = porter_stem(terms[0]);
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, SingleKeywordTruncationDetected) {
  auto terms = frequent_terms(1);
  SearchResponse resp = engine_->search(make_query({terms[0]}), SchemeKind::kHybrid);
  auto& single = std::get<SingleKeywordResponse>(resp.body);
  ASSERT_GT(single.postings.size(), 1u);
  single.postings.pop_back();
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_THROW(owner_verifier_->verify(resp), VerifyError);
}

TEST_F(SearchProofTest, HybridPolicyPicksAccumulatorForSmallDifference) {
  auto terms = frequent_terms(2);
  SearchResult result = engine_->execute_only(make_query(terms));
  HybridEstimate est = engine_->prover().hybrid_estimate(result);
  EXPECT_GT(est.accumulator_bytes, 0.0);
  EXPECT_GT(est.bloom_bytes, 0.0);
  // With this small corpus the difference set is small, so the accumulator
  // encoding should win (the paper's claim for few check elements).
  std::size_t base_size = std::min(bed_->vidx.find(result.keywords[0])->postings.size(),
                                   bed_->vidx.find(result.keywords[1])->postings.size());
  if (base_size - result.docs.size() < 20) {
    EXPECT_EQ(est.choice, IntegrityChoice::kAccumulator);
  }
}

// Every interval part of a Hybrid response ships the counter the owner's
// minimal-counter search stopped at: its candidate is the descriptor's
// representative, in the correctness parts (tuple trees) and in the
// integrity parts (doc trees) alike.
TEST_F(SearchProofTest, ShippedDescriptorCountersAreMinimal) {
  const VerifiableIndexConfig& cfg = bed_->config;
  const PrimeRepGenerator tuple_mid = IntervalIndex::middle_generator(cfg.tuple_prime_config());
  const PrimeRepGenerator doc_mid = IntervalIndex::middle_generator(cfg.doc_prime_config());
  std::size_t membership_parts = 0, nonmembership_parts = 0;
  auto expect_minimal = [](const PrimeRepGenerator& gen, const IntervalDescriptor& desc,
                           std::uint32_t ctr) {
    const Bytes enc = desc.encode();
    EXPECT_EQ(gen.candidate(enc, ctr), gen.representative(enc)) << ctr;
  };
  auto terms = frequent_terms(4);
  for (const auto& kws : std::vector<std::vector<std::string>>{
           {terms[0], terms[1]}, {terms[0], terms[2], terms[3]}, {terms[1], terms[3]}}) {
    SearchResponse resp = engine_->search(make_query(kws), SchemeKind::kHybrid);
    const auto& proof = std::get<MultiKeywordResponse>(resp.body).proof;
    for (const MembershipEvidence& ev : proof.correctness.keywords) {
      for (const auto& part : ev.interval.parts) {
        expect_minimal(tuple_mid, part.desc, part.mid_ctr);
        ++membership_parts;
      }
    }
    if (const auto* acc = std::get_if<AccumulatorIntegrity>(&proof.integrity)) {
      for (const auto& part : acc->check_membership.interval.parts) {
        expect_minimal(doc_mid, part.desc, part.mid_ctr);
        ++membership_parts;
      }
      for (const NonmembershipGroup& group : acc->groups) {
        for (const auto& part : group.evidence.interval.parts) {
          expect_minimal(doc_mid, part.desc, part.mid_ctr);
          ++nonmembership_parts;
        }
      }
    }
  }
  EXPECT_GT(membership_parts, 0u);
  EXPECT_GT(nonmembership_parts, 0u);
}

// Table I's "with prime" effect, stated as its cause rather than as two
// wall-clock readings: after the caches are dropped the first verify
// derives representatives (cache misses), and a second verify of the same
// response finds every one cached.
TEST_F(SearchProofTest, WarmPrimeCacheSpeedsVerification) {
  auto terms = frequent_terms(2);
  SearchResponse resp = engine_->search(make_query(terms), SchemeKind::kHybrid);
  owner_verifier_->reset_prime_caches();
  auto misses = [&] {
    return owner_verifier_->tuple_primes().misses() + owner_verifier_->doc_primes().misses();
  };
  const std::uint64_t before = misses();
  owner_verifier_->verify(resp);
  const std::uint64_t cold = misses();
  EXPECT_GT(cold, before);
  owner_verifier_->verify(resp);
  EXPECT_EQ(misses(), cold);
}

TEST_F(SearchProofTest, QuerySerializationRoundtrip) {
  Query q{.id = 42, .keywords = {"alpha", "beta"}};
  ByteWriter w;
  q.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(Query::read(r), q);
}

TEST_F(SearchProofTest, EngineRejectsDegenerateQueries) {
  EXPECT_THROW(engine_->search(Query{.id = 1, .keywords = {}}, SchemeKind::kHybrid),
               UsageError);
  EXPECT_THROW(engine_->search(Query{.id = 1, .keywords = {"!!!"}}, SchemeKind::kHybrid),
               UsageError);
}

}  // namespace
}  // namespace vc
