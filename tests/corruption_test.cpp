// Failure-injection: every deserialization path must reject corrupted or
// truncated input with a typed error — never crash, hang, or accept.
#include <gtest/gtest.h>

#include "support/errors.hpp"
#include "support/rng.hpp"
#include "test_fixtures.hpp"
#include "text/synth.hpp"

namespace vc {
namespace {

// A real serialized response to corrupt.
class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "c", .num_docs = 40, .min_doc_words = 20,
                   .max_doc_words = 50, .vocab_size = 200, .zipf_s = 0.9, .seed = 51};
    testbed::TestBed bed(spec, testbed::small_config(256, "corrupt"), /*key_seed=*/401,
                         /*threads=*/2);
    SearchEngine engine(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key, &bed.pool);
    Query q{.id = 9, .keywords = {synth_word(spec, 0), synth_word(spec, 1)}};
    SearchResponse resp = engine.search(q, SchemeKind::kHybrid);
    ByteWriter w;
    resp.write(w);
    wire_ = new Bytes(std::move(w).take());
  }
  static void TearDownTestSuite() { delete wire_; }

  static Bytes* wire_;
};

Bytes* CorruptionTest::wire_ = nullptr;

TEST_F(CorruptionTest, CleanResponseParses) {
  ByteReader r(*wire_);
  EXPECT_NO_THROW({
    SearchResponse resp = SearchResponse::read(r);
    r.expect_done();
    (void)resp;
  });
}

TEST_F(CorruptionTest, EveryTruncationRejected) {
  // Cutting the buffer anywhere must throw ParseError (prefix lengths and
  // trailing checks make partial parses impossible).
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, wire_->size() / 4,
                          wire_->size() / 2, wire_->size() - 1}) {
    Bytes cutbuf(wire_->begin(), wire_->begin() + cut);
    ByteReader r(cutbuf);
    EXPECT_THROW(
        {
          SearchResponse resp = SearchResponse::read(r);
          r.expect_done();
          (void)resp;
        },
        Error)
        << "cut at " << cut;
  }
}

TEST_F(CorruptionTest, RandomByteFlipsNeverCrash) {
  DeterministicRng rng(402);
  int parsed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = *wire_;
    std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    ByteReader r(mutated);
    try {
      SearchResponse resp = SearchResponse::read(r);
      r.expect_done();
      // Parsing may succeed (the flip hit a payload byte); the signature
      // must then fail downstream — here we only require no crash.
      ++parsed;
    } catch (const Error&) {
      // expected for structural corruption
    }
  }
  // Some flips should parse (they corrupt only signed content)...
  EXPECT_GT(parsed, 0);
  // ...and some should be structural parse failures.
  EXPECT_LT(parsed, 300);
}

TEST_F(CorruptionTest, TrailingGarbageRejected) {
  Bytes extended = *wire_;
  extended.push_back(0xAB);
  ByteReader r(extended);
  SearchResponse resp = SearchResponse::read(r);
  (void)resp;
  EXPECT_THROW(r.expect_done(), ParseError);
}

TEST(CorruptionSmall, BigintBadLength) {
  // Varint length prefix larger than the remaining buffer.
  Bytes bad = {0 /*sign*/, 0x20 /*len 32*/, 1, 2, 3};
  ByteReader r(bad);
  EXPECT_THROW(Bigint::read(r), ParseError);
}

TEST(CorruptionSmall, QueryBadTag) {
  ByteWriter w;
  w.str("vc.query.v2");  // wrong version tag
  Bytes data = w.data();
  ByteReader r(data);
  EXPECT_THROW(Query::read(r), ParseError);
}

TEST(CorruptionSmall, SchemeTagOutOfRange) {
  // QueryProof with scheme byte 9.
  Bytes bad = {9};
  ByteReader r(bad);
  EXPECT_THROW(QueryProof::read(r), ParseError);
}

TEST(CorruptionSmall, IntervalCounterAbove32Bits) {
  // A part's middle-layer prime counter is a varint; candidates are numbered
  // by u32, so 2^32 is refused while 2^32 - 1 still parses.
  const IntervalDescriptor desc{.lo = 1, .hi = 9, .b = Bigint(5)};
  auto membership = [&](std::uint64_t ctr) {
    ByteWriter w;
    desc.write(w);
    w.varint(ctr);
    Bigint(7).write(w);  // chat
    Bigint(3).write(w);  // mid_witness
    return std::move(w).take();
  };
  auto nonmembership = [&](std::uint64_t ctr) {
    ByteWriter w;
    desc.write(w);
    w.varint(ctr);
    NonmembershipWitness{.a = Bigint(2), .d = Bigint(4)}.write(w);
    Bigint(3).write(w);
    return std::move(w).take();
  };
  for (std::uint64_t ctr : {std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    const Bytes m = membership(ctr);
    ByteReader rm(m);
    EXPECT_THROW((void)IntervalMembershipPart::read(rm), ParseError) << ctr;
    const Bytes n = nonmembership(ctr);
    ByteReader rn(n);
    EXPECT_THROW((void)IntervalNonmembershipPart::read(rn), ParseError) << ctr;
  }
  const Bytes ok = membership(0xFFFFFFFFu);
  ByteReader r(ok);
  EXPECT_EQ(IntervalMembershipPart::read(r).mid_ctr, 0xFFFFFFFFu);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace vc
