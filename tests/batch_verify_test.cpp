// Batched verification: ResultVerifier checks every accumulator equation of
// a response in one VerifyBatch.  One false equation of each kind, hidden
// among the honest equations of a whole three-keyword response, must be
// rejected with the message the one-by-one exact check gives for it; and
// the ±1 ambiguity the squared batch test admits is pinned.
#include <gtest/gtest.h>

#include "accumulator/verify_batch.hpp"
#include "obs/metrics.hpp"
#include "proof/query_ast.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"

namespace vc {
namespace {

class BatchVerify : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "bv", .num_docs = 120, .min_doc_words = 30,
                   .max_doc_words = 90, .vocab_size = 300, .zipf_s = 0.9, .seed = 23};
    bed_ = new testbed::TestBed(spec, testbed::small_config(), /*key_seed=*/203);
    engine_ = new SearchEngine(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key,
                               &bed_->pool);
    owner_ = new ResultVerifier(bed_->owner_verifier());
    third_party_ = new ResultVerifier(bed_->third_party_verifier());
  }
  static void TearDownTestSuite() {
    delete third_party_;
    delete owner_;
    delete engine_;
    delete bed_;
  }

  static const Bigint& n() { return bed_->pub_ctx.n(); }
  static Bigint doubled(const Bigint& x) { return Bigint::mod(x * Bigint(2), n()); }

  // The flagship shape: three co-occurring keywords, interval-form evidence
  // (descriptors, membership parts, nonmembership parts).
  static SearchResponse three_term(SchemeKind scheme) {
    return engine_->search(testbed::TestBed::make_query(bed_->frequent_terms(3)), scheme);
  }

  static std::uint64_t equations_checked() {
    return obs::MetricsRegistry::global().counter("vc_verify_batch_equations_total").value();
  }

  // Re-signs the forged response and expects the owner and the third-party
  // verifier to reject it with `message`, from a batch of several equations.
  static void expect_rejected(SearchResponse resp, const std::string& message) {
    resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
    for (const ResultVerifier* verifier : {owner_, third_party_}) {
      const std::uint64_t before = equations_checked();
      try {
        verifier->verify(resp);
        ADD_FAILURE() << "forgery accepted, expected: " << message;
      } catch (const VerifyError& e) {
        EXPECT_EQ(std::string(e.what()), "verify: " + message);
      }
      EXPECT_GT(equations_checked() - before, 1u);
    }
  }

  static testbed::TestBed* bed_;
  static SearchEngine* engine_;
  static ResultVerifier* owner_;
  static ResultVerifier* third_party_;
};

testbed::TestBed* BatchVerify::bed_ = nullptr;
SearchEngine* BatchVerify::engine_ = nullptr;
ResultVerifier* BatchVerify::owner_ = nullptr;
ResultVerifier* BatchVerify::third_party_ = nullptr;

MultiKeywordResponse& multi_of(SearchResponse& resp) {
  return std::get<MultiKeywordResponse>(resp.body);
}

AccumulatorIntegrity& integrity_of(SearchResponse& resp) {
  return std::get<AccumulatorIntegrity>(multi_of(resp).proof.integrity);
}

TEST_F(BatchVerify, HonestResponsesVerify) {
  for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                            SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
    const SearchResponse resp = three_term(scheme);
    EXPECT_NO_THROW(owner_->verify(resp)) << scheme_name(scheme);
    EXPECT_NO_THROW(third_party_->verify(resp)) << scheme_name(scheme);
  }
}

TEST_F(BatchVerify, BadDescriptorWitnessRejected) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& parts = integrity_of(resp).check_membership.interval.parts;
  ASSERT_FALSE(parts.empty());
  parts.back().mid_witness = doubled(parts.back().mid_witness);
  expect_rejected(std::move(resp), "check-doc membership proof invalid");
}

TEST_F(BatchVerify, BadChatRejected) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& parts = multi_of(resp).proof.correctness.keywords[1].interval.parts;
  ASSERT_FALSE(parts.empty());
  parts.front().chat = doubled(parts.front().chat);
  expect_rejected(std::move(resp), "correctness proof invalid");
}

TEST_F(BatchVerify, BadNonmembershipCoefficientRejected) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& groups = integrity_of(resp).groups;
  ASSERT_FALSE(groups.empty());
  auto& parts = groups.back().evidence.interval.parts;
  ASSERT_FALSE(parts.empty());
  parts.back().nmw.a += Bigint(2);
  expect_rejected(std::move(resp), "nonmembership proof invalid");
}

TEST_F(BatchVerify, BadNonmembershipWitnessRejected) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& groups = integrity_of(resp).groups;
  ASSERT_FALSE(groups.empty());
  auto& parts = groups.front().evidence.interval.parts;
  ASSERT_FALSE(parts.empty());
  parts.front().nmw.d = doubled(parts.front().nmw.d);
  expect_rejected(std::move(resp), "nonmembership proof invalid");
}

TEST_F(BatchVerify, BadFlatWitnessRejected) {
  SearchResponse resp = three_term(SchemeKind::kAccumulator);
  MembershipEvidence& ev = multi_of(resp).proof.correctness.keywords[2];
  ASSERT_FALSE(ev.interval_form);
  ev.flat_witness = doubled(ev.flat_witness);
  expect_rejected(std::move(resp), "correctness proof invalid");
}

TEST_F(BatchVerify, BadGapWitnessRejected) {
  // A boolean query with an unknown leaf: the gap proof's equation sits
  // among the facts' and the correctness evidence's.
  const std::vector<std::string> terms = bed_->frequent_terms(2);
  Query q = testbed::TestBed::make_query({terms[0], terms[1], "qqzzyyxx"});
  q.expr = parse_query(terms[0] + " OR " + terms[1] + " AND NOT qqzzyyxx");
  SearchResponse resp = engine_->search(q, SchemeKind::kHybrid);
  auto& boolean = std::get<BooleanQueryResponse>(resp.body);
  ASSERT_EQ(boolean.proof.unknowns.size(), 1u);
  ASSERT_NO_THROW(owner_->verify(resp));
  GapProof& gap = boolean.proof.unknowns[0].gap;
  gap.witness = doubled(gap.witness);
  expect_rejected(std::move(resp), "unknown-term gap proof invalid");
}

TEST_F(BatchVerify, FirstFalseEquationInRecordingOrderIsReported) {
  // Correctness evidence is recorded before integrity evidence.
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& groups = integrity_of(resp).groups;
  ASSERT_FALSE(groups.empty());
  groups.front().evidence.interval.parts.front().nmw.d =
      doubled(groups.front().evidence.interval.parts.front().nmw.d);
  auto& chat = multi_of(resp).proof.correctness.keywords[2].interval.parts.back().chat;
  chat = doubled(chat);
  expect_rejected(std::move(resp), "correctness proof invalid");
}

// 0 is not a unit.  A zero d alone sits on the right of the combined test,
// where it has no inverse; a zero ĉ on the left and a zero d on the right
// would make both sides 0.
TEST_F(BatchVerify, ZeroValuesRejected) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& groups = integrity_of(resp).groups;
  ASSERT_FALSE(groups.empty());
  groups.back().evidence.interval.parts.back().nmw.d = Bigint(0);
  expect_rejected(resp, "nonmembership proof invalid");
  multi_of(resp).proof.correctness.keywords[1].interval.parts.back().chat = Bigint(0);
  expect_rejected(std::move(resp), "correctness proof invalid");
}

// The squared test accepts x^e = -y for x^e = y.  Every exponent the
// verifier uses is odd, so (-x)^e = -x^e: a witness multiplied by n-1 is the
// negation of a genuine one, and asserts nothing false.
TEST_F(BatchVerify, NegatedWitnessIsTheSquaredTestsOneAmbiguity) {
  SearchResponse resp = three_term(SchemeKind::kIntervalAccumulator);
  auto& part = multi_of(resp).proof.correctness.keywords[0].interval.parts.front();
  const Bigint genuine = part.chat;
  const Bigint negated = Bigint::mod(genuine * (n() - Bigint(1)), n());
  ASSERT_EQ(negated, n() - genuine);

  part.chat = negated;
  resp.cloud_sig = bed_->cloud_key.sign(resp.payload_bytes());
  EXPECT_NO_THROW(owner_->verify(resp));
  EXPECT_NO_THROW(third_party_->verify(resp));

  // The same equation checked exactly (a batch of one) tells the two
  // apart: the negated witness fails, its negation is the genuine one.
  const std::vector<std::uint64_t> values = [&] {
    const MultiKeywordResponse& multi = multi_of(resp);
    U64Set tuples = InvertedIndex::tuple_set(multi.result.postings[0]);
    std::sort(tuples.begin(), tuples.end());
    std::vector<std::uint64_t> in_part;
    for (std::uint64_t t : tuples) {
      if (t >= part.desc.lo && t <= part.desc.hi) in_part.push_back(t);
    }
    return in_part;
  }();
  ASSERT_FALSE(values.empty());
  std::vector<Bigint> reps;
  for (std::uint64_t v : values) reps.push_back(owner_->tuple_primes().get(v));
  for (const AccumulatorContext* ctx : {&bed_->owner_ctx, &bed_->pub_ctx}) {
    EXPECT_FALSE(verify_membership(*ctx, part.desc.b, negated, reps));
    EXPECT_TRUE(verify_membership(*ctx, part.desc.b, n() - negated, reps));
    // Batched with one more true equation, the negated witness passes.
    VerifyBatch batch(*ctx);
    batch.add_membership(part.desc.b, negated, reps, "negated");
    batch.add_membership(part.desc.b, genuine, reps, "genuine");
    EXPECT_TRUE(batch.holds());
  }
}

}  // namespace
}  // namespace vc
