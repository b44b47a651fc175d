#include <gtest/gtest.h>

#include "bloom/compressed_bloom.hpp"
#include "crypto/standard_params.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/balance.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

VerifiableIndexConfig small_config() {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 512, .hashes = 1, .domain = "vc.bloom.docs"};
  return cfg;
}

class VIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    owner_ctx_ = new AccumulatorContext(AccumulatorContext::owner(
        standard_accumulator_modulus(512), standard_qr_generator(512)));
    pub_ctx_ = new AccumulatorContext(AccumulatorContext::public_side(owner_ctx_->params()));
    DeterministicRng rng(101);
    owner_key_ = new SigningKey(generate_signing_key(rng, 512));
    pool_ = new ThreadPool(4);
    Corpus corpus = generate_corpus(
        SynthSpec{.name = "vt", .num_docs = 60, .min_doc_words = 30,
                  .max_doc_words = 80, .vocab_size = 400, .zipf_s = 1.0, .seed = 5});
    vidx_ = new IndexBuilder(IndexBuilder::build(
        InvertedIndex::build(corpus), *owner_ctx_, *owner_key_, small_config(), *pool_,
        BalanceStrategy::kRecordBased, &stats_));
  }
  static void TearDownTestSuite() {
    delete vidx_;
    delete pool_;
    delete owner_key_;
    delete pub_ctx_;
    delete owner_ctx_;
  }

  static AccumulatorContext* owner_ctx_;
  static AccumulatorContext* pub_ctx_;
  static SigningKey* owner_key_;
  static ThreadPool* pool_;
  static IndexBuilder* vidx_;
  static BuildStats stats_;
};

AccumulatorContext* VIndexTest::owner_ctx_ = nullptr;
AccumulatorContext* VIndexTest::pub_ctx_ = nullptr;
SigningKey* VIndexTest::owner_key_ = nullptr;
ThreadPool* VIndexTest::pool_ = nullptr;
IndexBuilder* VIndexTest::vidx_ = nullptr;
BuildStats VIndexTest::stats_;

TEST_F(VIndexTest, BuildCoversAllTerms) {
  EXPECT_EQ(vidx_->term_count(), vidx_->index().term_count());
  EXPECT_GT(vidx_->term_count(), 50u);
  EXPECT_EQ(stats_.terms, vidx_->term_count());
  EXPECT_EQ(stats_.records, vidx_->index().record_count());
  EXPECT_GT(stats_.prime_precompute_seconds, 0.0);
}

TEST_F(VIndexTest, EntriesInternallyConsistent) {
  for (const auto& term : vidx_->index().dictionary()) {
    const auto* e = vidx_->find(term);
    ASSERT_NE(e, nullptr) << term;
    EXPECT_EQ(e->attestation.stmt.term, term);
    EXPECT_EQ(e->attestation.stmt.posting_count, e->postings.size());
    EXPECT_EQ(e->attestation.stmt.tuple_root, e->tuple_intervals.root());
    EXPECT_EQ(e->attestation.stmt.doc_root, e->doc_intervals.root());
    EXPECT_EQ(e->attestation.stmt.postings_digest, postings_digest(e->postings));
    EXPECT_EQ(decompress_bloom(e->bloom_attestation.stmt.doc_bloom),
              CountingBloom::from_set(vidx_->config().bloom, InvertedIndex::doc_set(e->postings)))
        << term;
  }
}

TEST_F(VIndexTest, AttestationsVerifyAgainstOwnerKey) {
  const auto* e = vidx_->find(vidx_->index().dictionary().front());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->attestation.verify(owner_key_->verify_key()));
  EXPECT_TRUE(e->bloom_attestation.verify(owner_key_->verify_key()));
  EXPECT_TRUE(vidx_->dict_attestation().verify(owner_key_->verify_key()));
  // A different key rejects.
  DeterministicRng rng(102);
  SigningKey other = generate_signing_key(rng, 512);
  EXPECT_FALSE(e->attestation.verify(other.verify_key()));
}

TEST_F(VIndexTest, FlatAccumulatorMatchesManualAccumulation) {
  const std::string term = vidx_->index().dictionary()[3];  // dictionary() returns a copy
  const auto* e = vidx_->find(term);
  U64Set docs = InvertedIndex::doc_set(e->postings);
  std::vector<Bigint> reps;
  for (auto d : docs) reps.push_back(vidx_->doc_primes().get(d));
  EXPECT_EQ(e->attestation.stmt.doc_acc, pub_ctx_->accumulate(reps));
}

TEST_F(VIndexTest, BloomAttestationRoundtrips) {
  const auto* e = vidx_->find(vidx_->index().dictionary()[1]);
  CountingBloom stored = decompress_bloom(e->bloom_attestation.stmt.doc_bloom);
  EXPECT_EQ(stored,
            CountingBloom::from_set(vidx_->config().bloom, InvertedIndex::doc_set(e->postings)));
  EXPECT_EQ(compress_bloom(stored), e->bloom_attestation.stmt.doc_bloom);
}

// The receipt check recomputes every signed filter from the postings: a
// Bloom statement honestly signed over a different doc set of the same size
// is caught.
TEST_F(VIndexTest, ValidateRejectsBloomSignedOverOtherDocs) {
  SnapshotPtr snap = vidx_->snapshot();
  ASSERT_NO_THROW(IndexBuilder::from_snapshot(snap).validate(owner_key_->verify_key()));

  const std::string term = vidx_->index().dictionary()[2];
  auto forged = std::make_shared<IndexEntry>(*snap->find(term));
  U64Set docs = InvertedIndex::doc_set(forged->postings);
  const CountingBloom honest = CountingBloom::from_set(vidx_->config().bloom, docs);
  docs.front() = docs.back() + 1;  // swap a member for a non-member
  const CountingBloom other = CountingBloom::from_set(vidx_->config().bloom, docs);
  ASSERT_NE(other, honest);
  BloomStatement stmt = forged->bloom_attestation.stmt;
  stmt.doc_bloom = compress_bloom(other);
  forged->bloom_attestation = BloomAttestation{stmt, owner_key_->sign(stmt.encode())};

  IndexSnapshot::EntryMap entries = snap->entries();
  entries[term] = forged;
  auto tampered = std::make_shared<const IndexSnapshot>(
      snap->config(), snap->epoch(), std::move(entries),
      std::shared_ptr<const DictionaryIntervals>(snap, &snap->dictionary()),
      std::shared_ptr<const DictAttestation>(snap, &snap->dict_attestation()),
      std::shared_ptr<PrimeCache>(snap, &snap->tuple_primes()),
      std::shared_ptr<PrimeCache>(snap, &snap->doc_primes()));
  EXPECT_THROW(IndexBuilder::from_snapshot(tampered).validate(owner_key_->verify_key()),
               VerifyError);
}

TEST_F(VIndexTest, DictionaryKnowsAllTerms) {
  EXPECT_EQ(vidx_->dictionary().word_count(), vidx_->term_count());
  for (const auto& term : vidx_->index().dictionary()) {
    EXPECT_TRUE(vidx_->dictionary().contains(term));
  }
  EXPECT_FALSE(vidx_->dictionary().contains("notaword"));
}

TEST_F(VIndexTest, TermAndRecordStrategiesBuildIdenticalStatements) {
  Corpus corpus = generate_corpus(
      SynthSpec{.name = "vt2", .num_docs = 20, .min_doc_words = 15,
                .max_doc_words = 40, .vocab_size = 150, .zipf_s = 1.0, .seed = 9});
  InvertedIndex idx = InvertedIndex::build(corpus);
  IndexBuilder a = IndexBuilder::build(idx, *owner_ctx_, *owner_key_, small_config(),
                                             *pool_, BalanceStrategy::kRecordBased);
  IndexBuilder b = IndexBuilder::build(idx, *owner_ctx_, *owner_key_, small_config(),
                                             *pool_, BalanceStrategy::kTermBased);
  for (const auto& term : idx.dictionary()) {
    EXPECT_EQ(a.find(term)->attestation.stmt, b.find(term)->attestation.stmt) << term;
  }
}

TEST_F(VIndexTest, AddDocumentsUpdatesEverything) {
  Corpus corpus = generate_corpus(
      SynthSpec{.name = "vt3", .num_docs = 30, .min_doc_words = 20,
                .max_doc_words = 50, .vocab_size = 200, .zipf_s = 1.0, .seed = 12});
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), *owner_ctx_,
                                                *owner_key_, small_config(), *pool_);
  // New docs drawn from the same vocabulary plus one brand-new word.
  std::vector<Document> added;
  SynthSpec spec{.name = "vt3", .num_docs = 1, .vocab_size = 200, .seed = 12};
  added.push_back(Document{30, "new0",
                           synth_word(spec, 0) + " " + synth_word(spec, 1) + " zzznewword"});
  added.push_back(Document{31, "new1", synth_word(spec, 0) + " " + synth_word(spec, 3)});
  UpdateTimings t = vidx.add_documents(added, *owner_ctx_, *owner_key_);
  EXPECT_GT(t.touched_terms, 0u);
  EXPECT_GT(t.added_postings, 0u);

  // Updated flat accumulator must equal a from-scratch accumulation.
  std::string w0 = porter_stem(synth_word(spec, 0));
  const auto* e = vidx.find(w0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->postings.back().doc_id, 31u);
  U64Set docs = InvertedIndex::doc_set(e->postings);
  std::vector<Bigint> reps;
  for (auto d : docs) reps.push_back(vidx.doc_primes().get(d));
  EXPECT_EQ(e->attestation.stmt.doc_acc, pub_ctx_->accumulate(reps));
  EXPECT_TRUE(e->attestation.verify(owner_key_->verify_key()));
  // Bloom updated too.
  EXPECT_EQ(decompress_bloom(e->bloom_attestation.stmt.doc_bloom),
            CountingBloom::from_set(vidx.config().bloom, docs));

  // The new term exists and the dictionary was rebuilt to include it.
  const auto* ne = vidx.find("zzznewword");
  ASSERT_NE(ne, nullptr);
  EXPECT_TRUE(vidx.dictionary().contains("zzznewword"));
  EXPECT_TRUE(vidx.dict_attestation().verify(owner_key_->verify_key()));
}

TEST_F(VIndexTest, AddDocumentsRequiresTrapdoor) {
  Corpus corpus = generate_corpus(SynthSpec{.num_docs = 5, .vocab_size = 50, .seed = 13});
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), *owner_ctx_,
                                                *owner_key_, small_config(), *pool_);
  std::vector<Document> docs = {Document{5, "x", "hello world"}};
  EXPECT_THROW(vidx.add_documents(docs, *pub_ctx_, *owner_key_), UsageError);
}

// --- load balancing -----------------------------------------------------------

TEST(Balance, TermBasedSplitsEvenCounts) {
  std::vector<std::size_t> counts = {5, 5, 5, 5, 5, 5};
  auto groups = partition_terms(counts, 3, BalanceStrategy::kTermBased);
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 2u);
}

TEST(Balance, RecordBasedBalancesSkew) {
  // One huge term plus many small ones: record-based puts the huge term
  // alone; term-based fills one chunk with it plus others.
  std::vector<std::size_t> counts = {1000, 10, 10, 10, 10, 10, 10, 10};
  double term_speedup = modeled_speedup(counts, 4, BalanceStrategy::kTermBased);
  double record_speedup = modeled_speedup(counts, 4, BalanceStrategy::kRecordBased);
  EXPECT_GT(record_speedup, term_speedup);
  EXPECT_LE(record_speedup, 4.0);
}

TEST(Balance, AllTermsAssignedExactlyOnce) {
  std::vector<std::size_t> counts(37);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = (i * 7) % 23 + 1;
  for (auto strategy : {BalanceStrategy::kTermBased, BalanceStrategy::kRecordBased}) {
    auto groups = partition_terms(counts, 5, strategy);
    std::vector<int> seen(counts.size(), 0);
    for (const auto& g : groups) {
      for (std::size_t t : g) seen[t]++;
    }
    for (int s : seen) EXPECT_EQ(s, 1);
  }
}

TEST(Balance, SpeedupMonotoneForRecordBased) {
  std::vector<std::size_t> counts(200);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = i % 17 + 1;
  double prev = 0;
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u}) {
    double s = modeled_speedup(counts, w, BalanceStrategy::kRecordBased);
    EXPECT_GE(s + 1e-9, prev);
    prev = s;
  }
  EXPECT_DOUBLE_EQ(modeled_speedup(counts, 1, BalanceStrategy::kTermBased), 1.0);
}

TEST(Balance, EdgeCases) {
  EXPECT_THROW(partition_terms({}, 0, BalanceStrategy::kTermBased), UsageError);
  auto groups = partition_terms({}, 3, BalanceStrategy::kRecordBased);
  EXPECT_EQ(groups.size(), 3u);
  std::vector<std::size_t> one = {42};
  EXPECT_DOUBLE_EQ(modeled_speedup(one, 8, BalanceStrategy::kRecordBased), 1.0);
}

}  // namespace
}  // namespace vc
