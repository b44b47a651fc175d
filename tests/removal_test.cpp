// Document-removal tests (§II-D, Eq 6): deletes propagate through the flat
// accumulators, Bloom filters, interval trees, signatures and dictionary,
// and searches over the shrunken index still prove and verify.
#include <gtest/gtest.h>

#include "bloom/compressed_bloom.hpp"
#include "crypto/standard_params.hpp"
#include "search/engine.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

VerifiableIndexConfig small_config() {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "rm"};
  return cfg;
}

class RemovalTest : public ::testing::Test {
 protected:
  RemovalTest()
      : owner_ctx_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512))),
        pub_ctx_(AccumulatorContext::public_side(owner_ctx_.params())),
        pool_(2) {
    DeterministicRng rng(901);
    owner_key_ = generate_signing_key(rng, 512);
    cloud_key_ = generate_signing_key(rng, 512);
    spec_ = SynthSpec{.name = "rm", .num_docs = 40, .min_doc_words = 20,
                      .max_doc_words = 50, .vocab_size = 200, .zipf_s = 0.9, .seed = 71};
    Corpus corpus = generate_corpus(spec_);
    // One extra doc carrying a unique term, to test term disappearance.
    corpus.add("unique", "onlyhereterm " + synth_word(spec_, 0));
    vidx_ = std::make_unique<IndexBuilder>(IndexBuilder::build(
        InvertedIndex::build(corpus), owner_ctx_, owner_key_, small_config(), pool_));
  }

  AccumulatorContext owner_ctx_;
  AccumulatorContext pub_ctx_;
  ThreadPool pool_;
  SigningKey owner_key_;
  SigningKey cloud_key_;
  SynthSpec spec_;
  std::unique_ptr<IndexBuilder> vidx_;
};

TEST_F(RemovalTest, InvertedIndexRemoval) {
  InvertedIndex idx = vidx_->index();
  std::uint64_t before = idx.record_count();
  U64Set ids = {0, 5};
  auto removed = idx.remove_documents(ids);
  EXPECT_FALSE(removed.empty());
  std::uint64_t gone = 0;
  for (const auto& [term, list] : removed) {
    gone += list.size();
    for (const Posting& p : list) EXPECT_TRUE(p.doc_id == 0 || p.doc_id == 5);
  }
  EXPECT_EQ(idx.record_count(), before - gone);
  for (const auto& [term, list] : idx.terms()) {
    EXPECT_FALSE(list.empty());
    for (const Posting& p : list) EXPECT_TRUE(p.doc_id != 0 && p.doc_id != 5);
  }
}

TEST_F(RemovalTest, AccumulatorsMatchFreshBuildAfterRemoval) {
  U64Set ids = {3, 7, 11};
  vidx_->remove_documents(ids, owner_ctx_, owner_key_);
  EXPECT_NO_THROW(vidx_->validate(owner_key_.verify_key()));
  // Every surviving entry's flat doc accumulator equals a from-scratch
  // accumulation of the surviving doc set (Eq 6 correctness).
  int checked = 0;
  for (const auto& term : vidx_->index().dictionary()) {
    const auto* e = vidx_->find(term);
    ASSERT_NE(e, nullptr);
    if (checked++ > 20) break;  // spot-check a prefix; validate() covers shape
    U64Set docs = InvertedIndex::doc_set(e->postings);
    std::vector<Bigint> reps;
    for (auto d : docs) reps.push_back(vidx_->doc_primes().get(d));
    EXPECT_EQ(e->attestation.stmt.doc_acc, pub_ctx_.accumulate(reps)) << term;
    EXPECT_EQ(decompress_bloom(e->bloom_attestation.stmt.doc_bloom),
              CountingBloom::from_set(vidx_->config().bloom, docs))
        << term;
  }
}

TEST_F(RemovalTest, UniqueTermDisappearsAndBecomesUnknown) {
  ASSERT_NE(vidx_->find("onlyhereterm"), nullptr);
  U64Set ids = {40};  // the doc carrying the unique term
  UpdateTimings t = vidx_->remove_documents(ids, owner_ctx_, owner_key_);
  EXPECT_GT(t.touched_terms, 0u);
  EXPECT_EQ(vidx_->find("onlyhereterm"), nullptr);
  EXPECT_FALSE(vidx_->dictionary().contains("onlyhereterm"));
  EXPECT_NO_THROW(vidx_->validate(owner_key_.verify_key()));
  // The term now gets an unknown-keyword gap proof.
  SearchEngine engine(vidx_->snapshot(), pub_ctx_, cloud_key_, &pool_);
  ResultVerifier verifier(owner_ctx_, owner_key_.verify_key(), cloud_key_.verify_key(),
                          small_config());
  SearchResponse resp =
      engine.search(Query{.id = 1, .keywords = {"onlyhereterm"}}, SchemeKind::kHybrid);
  EXPECT_TRUE(std::holds_alternative<UnknownKeywordResponse>(resp.body));
  EXPECT_NO_THROW(verifier.verify(resp));
}

TEST_F(RemovalTest, SearchesVerifyAfterRemoval) {
  U64Set ids = {0, 1, 2, 3, 4};
  vidx_->remove_documents(ids, owner_ctx_, owner_key_);
  SearchEngine engine(vidx_->snapshot(), pub_ctx_, cloud_key_, &pool_);
  ResultVerifier verifier(owner_ctx_, owner_key_.verify_key(), cloud_key_.verify_key(),
                          small_config());
  Query q{.id = 2, .keywords = {synth_word(spec_, 5), synth_word(spec_, 9)}};
  for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                            SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
    SearchResponse resp = engine.search(q, scheme);
    EXPECT_NO_THROW(verifier.verify(resp)) << scheme_name(scheme);
    if (const auto* multi = std::get_if<MultiKeywordResponse>(&resp.body)) {
      for (std::uint64_t d : multi->result.docs) EXPECT_GE(d, 5u);
    }
  }
}

TEST_F(RemovalTest, AddThenRemoveRestoresAccumulators) {
  const std::string term = porter_stem(synth_word(spec_, 5));
  const auto* before = vidx_->find(term);
  ASSERT_NE(before, nullptr);
  Bigint doc_acc_before = before->attestation.stmt.doc_acc;
  std::size_t count_before = before->postings.size();

  std::vector<Document> docs = {
      Document{41, "tmp", synth_word(spec_, 5) + " transientterm"}};
  vidx_->add_documents(docs, owner_ctx_, owner_key_);
  EXPECT_NE(vidx_->find(term)->attestation.stmt.doc_acc, doc_acc_before);
  U64Set ids = {41};
  vidx_->remove_documents(ids, owner_ctx_, owner_key_);
  const auto* after = vidx_->find(term);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->attestation.stmt.doc_acc, doc_acc_before);
  EXPECT_EQ(after->postings.size(), count_before);
  EXPECT_EQ(vidx_->find("transientterm"), nullptr);
  EXPECT_NO_THROW(vidx_->validate(owner_key_.verify_key()));
}

// publish_delta()'s max posting count is a running maximum kept by the
// mutations, not a scan: it must equal a full scan after additions, after
// removals from the longest list, and after a term vanishes.
TEST_F(RemovalTest, DeltaMaxPostingCountMatchesFullScan) {
  auto scan = [&] {
    std::size_t m = 0;
    for (const auto& [term, list] : vidx_->index().terms()) m = std::max(m, list.size());
    return m;
  };
  auto delta_max = [&] {
    auto d = vidx_->publish_delta();
    EXPECT_TRUE(d.has_value());
    return d.has_value() ? d->max_posting_count : std::size_t{0};
  };
  vidx_->note_full_publish();

  const std::string hot = synth_word(spec_, 0) + " " + synth_word(spec_, 1);
  std::vector<Document> docs = {Document{41, "a", hot}, Document{42, "b", hot}};
  vidx_->add_documents(docs, owner_ctx_, owner_key_);
  EXPECT_EQ(delta_max(), scan());

  // Twice: every other document of the current longest list (keeping doc
  // 40, the unique term's, for the vanishing case below).
  for (int round = 0; round < 2; ++round) {
    const PostingList* longest = nullptr;
    for (const auto& [term, list] : vidx_->index().terms()) {
      if (longest == nullptr || list.size() > longest->size()) longest = &list;
    }
    ASSERT_NE(longest, nullptr);
    U64Set ids;
    for (std::size_t i = 0; i < longest->size(); i += 2) {
      if ((*longest)[i].doc_id != 40) ids.push_back((*longest)[i].doc_id);
    }
    vidx_->remove_documents(ids, owner_ctx_, owner_key_);
    EXPECT_EQ(delta_max(), scan()) << "round " << round;
  }

  ASSERT_NE(vidx_->find("onlyhereterm"), nullptr);
  U64Set unique = {40};
  vidx_->remove_documents(unique, owner_ctx_, owner_key_);
  ASSERT_EQ(vidx_->find("onlyhereterm"), nullptr);
  EXPECT_EQ(delta_max(), scan());
  EXPECT_EQ(vidx_->snapshot()->max_posting_count(), scan());
}

TEST_F(RemovalTest, RemovalRequiresTrapdoorAndIgnoresUnknownIds) {
  U64Set ids = {0};
  EXPECT_THROW(vidx_->remove_documents(ids, pub_ctx_, owner_key_), UsageError);
  U64Set ghost = {9999};
  UpdateTimings t = vidx_->remove_documents(ghost, owner_ctx_, owner_key_);
  EXPECT_EQ(t.touched_terms, 0u);
  EXPECT_NO_THROW(vidx_->validate(owner_key_.verify_key()));
}

TEST_F(RemovalTest, IntervalRemoveStandalone) {
  PrimeCache primes(PrimeRepConfig{.rep_bits = 64, .domain = "rm-int"});
  std::vector<std::uint64_t> elems;
  for (std::uint64_t i = 0; i < 30; ++i) elems.push_back(2 * i);
  IntervalIndex idx =
      IntervalIndex::build(owner_ctx_, elems, primes, IntervalConfig{.interval_size = 8});
  std::vector<std::uint64_t> gone = {4, 20, 58};
  idx.update(owner_ctx_, {}, gone, primes);
  EXPECT_EQ(idx.element_count(), 27u);
  // Removed values now prove nonmembership; survivors still prove membership.
  auto np = idx.prove_nonmembership(pub_ctx_, gone, primes);
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub_ctx_, idx.root(), np, gone, primes));
  std::vector<std::uint64_t> kept = {0, 22, 56};
  auto mp = idx.prove_membership(pub_ctx_, kept, primes);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_ctx_, idx.root(), mp, kept, primes));
  // Removing everything leaves a provably empty structure.
  idx.update(owner_ctx_, {}, elems, primes);
  EXPECT_EQ(idx.element_count(), 0u);
  auto np_all = idx.prove_nonmembership(pub_ctx_, elems, primes);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_ctx_, idx.root(), np_all, elems, primes));
  // Public side cannot delete.
  IntervalIndex idx2 =
      IntervalIndex::build(owner_ctx_, elems, primes, IntervalConfig{.interval_size = 8});
  EXPECT_THROW(idx2.update(pub_ctx_, {}, gone, primes), UsageError);
}

}  // namespace
}  // namespace vc
