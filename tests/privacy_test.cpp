// Privacy-layer tests (§VII future work): PRF keyword tokens, encrypted
// document store, and an end-to-end private verifiable search.
#include <gtest/gtest.h>

#include "crypto/standard_params.hpp"
#include "privacy/private_index.hpp"
#include "search/engine.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "text/stemmer.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

PrivacyKey test_key(std::uint64_t seed = 700) {
  DeterministicRng rng(seed);
  return PrivacyKey::generate(rng);
}

TEST(PrivacyKey, TokensAreDeterministicAndKeyed) {
  PrivacyKey a = test_key(1), b = test_key(2);
  EXPECT_EQ(a.token_for("meeting"), a.token_for("meeting"));
  EXPECT_NE(a.token_for("meeting"), a.token_for("budget"));
  EXPECT_NE(a.token_for("meeting"), b.token_for("meeting"));
}

TEST(PrivacyKey, TokensSurviveTheTextPipeline) {
  PrivacyKey key = test_key();
  for (const char* term : {"meet", "budget", "cat", "veryverylongstemmedterm"}) {
    std::string token = key.token_for(term);
    EXPECT_EQ(token.size(), 25u);
    EXPECT_TRUE(token[0] >= '0' && token[0] <= '9');
    // Tokenizer keeps it whole; stemmer leaves it alone; not a stop word.
    auto toks = tokenize(token);
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0], token);
    EXPECT_EQ(porter_stem(token), token);
    auto analyzed = analyze(token);
    ASSERT_EQ(analyzed.size(), 1u);
    EXPECT_EQ(analyzed[0], token);
  }
}

TEST(PrivacyKey, KeywordTokenMatchesIndexToken) {
  // Raw keyword "Meetings" and corpus word "meeting" must map to the same
  // token (shared normalization).
  PrivacyKey key = test_key();
  EXPECT_EQ(key.token_for_keyword("Meetings!"), key.token_for(porter_stem("meetings")));
  EXPECT_EQ(key.token_for_keyword("!!!"), "");
}

TEST(PrivacyKey, SerializationRoundtrip) {
  PrivacyKey key = test_key();
  ByteWriter w;
  key.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(PrivacyKey::read(r), key);
}

TEST(EncryptedStoreTest, SealOpenRoundtrip) {
  Corpus corpus("enc");
  corpus.add("a", "the quick brown fox");
  corpus.add("b", "");
  corpus.add("c", std::string(10000, 'x') + " long document");
  PrivacyKey key = test_key();
  EncryptedStore store = EncryptedStore::seal(corpus, key);
  for (std::uint32_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(store.open(i, key), corpus[i].text) << i;
    // Ciphertext is not the plaintext.
    if (!corpus[i].text.empty()) {
      EXPECT_NE(std::string(store.documents[i].begin(),
                            store.documents[i].end() - 16),
                corpus[i].text);
    }
  }
  EXPECT_THROW((void)store.open(99, key), UsageError);
}

TEST(EncryptedStoreTest, TamperingDetected) {
  Corpus corpus("enc2");
  corpus.add("a", "confidential payload");
  PrivacyKey key = test_key();
  EncryptedStore store = EncryptedStore::seal(corpus, key);
  store.documents[0][0] ^= 0x01;
  EXPECT_THROW((void)store.open(0, key), CryptoError);
}

TEST(EncryptedStoreTest, WrongKeyOrDocIdRejected) {
  Corpus corpus("enc3");
  corpus.add("a", "text");
  PrivacyKey key = test_key(10), other = test_key(11);
  EncryptedStore store = EncryptedStore::seal(corpus, key);
  EXPECT_THROW((void)store.open(0, other), CryptoError);
  // Swapping ciphertexts between docIDs breaks the MAC binding.
  corpus.add("b", "other");
  EncryptedStore two = EncryptedStore::seal(corpus, key);
  std::swap(two.documents[0], two.documents[1]);
  EXPECT_THROW((void)two.open(0, key), CryptoError);
}

TEST(EncryptedStoreTest, SerializationRoundtrip) {
  Corpus corpus("enc4");
  corpus.add("a", "one");
  corpus.add("b", "two");
  PrivacyKey key = test_key();
  EncryptedStore store = EncryptedStore::seal(corpus, key);
  ByteWriter w;
  store.write(w);
  ByteReader r(w.data());
  EncryptedStore round = EncryptedStore::read(r);
  EXPECT_EQ(round.open(1, key), "two");
}

TEST(TokenizedCorpus, PreservesTfAndHidesVocabulary) {
  Corpus corpus("tok");
  corpus.add("d0", "apple apple banana");
  PrivacyKey key = test_key();
  Corpus tokens = tokenize_corpus(corpus, key);
  ASSERT_EQ(tokens.size(), 1u);
  // No plaintext terms remain.
  EXPECT_EQ(tokens[0].text.find("apple"), std::string::npos);
  // tf is preserved per token.
  InvertedIndex idx = InvertedIndex::build(tokens);
  const auto* apple = idx.find(key.token_for("appl"));
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ((*apple)[0].tf, 2u);
  const auto* banana = idx.find(key.token_for("banana"));
  ASSERT_NE(banana, nullptr);
  EXPECT_EQ((*banana)[0].tf, 1u);
}

TEST(PrivateSearch, EndToEndWithProofs) {
  // Full private pipeline: tokenized verifiable index + encrypted store;
  // the cloud sees only tokens and ciphertext, yet every proof verifies
  // and the owner decrypts the matching documents.
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(701);
  SigningKey owner_sig = generate_signing_key(rng, 512);
  SigningKey cloud_sig = generate_signing_key(rng, 512);
  PrivacyKey key = PrivacyKey::generate(rng);
  ThreadPool pool(2);

  Corpus corpus("private");
  corpus.add("m0", "project deadline moved to friday budget untouched");
  corpus.add("m1", "budget review for the project next week");
  corpus.add("m2", "lunch plans friday");
  corpus.add("m3", "the project budget needs another review");

  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 4;
  cfg.bloom = BloomParams{.counters = 128, .hashes = 1, .domain = "priv"};

  Corpus tokenized = tokenize_corpus(corpus, key);
  EncryptedStore store = EncryptedStore::seal(corpus, key);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(tokenized), owner_ctx,
                                                owner_sig, cfg, pool);
  SearchEngine cloud(vidx.snapshot(), pub_ctx, cloud_sig, &pool);
  ResultVerifier verifier(owner_ctx, owner_sig.verify_key(), cloud_sig.verify_key(), cfg);

  // Owner-side query translation.
  Query q{.id = 1, .keywords = {key.token_for_keyword("project"),
                                key.token_for_keyword("budget")}};
  SearchResponse resp = cloud.search(q, SchemeKind::kHybrid);
  EXPECT_NO_THROW(verifier.verify(resp));
  const auto& multi = std::get<MultiKeywordResponse>(resp.body);
  EXPECT_EQ(multi.result.docs, (U64Set{0, 1, 3}));
  // Decrypt a verified hit.
  EXPECT_NE(store.open(1, key).find("budget review"), std::string::npos);

  // Unknown keyword: the gap proof works over token space too.
  Query unknown{.id = 2, .keywords = {key.token_for_keyword("zeppelin")}};
  SearchResponse uresp = cloud.search(unknown, SchemeKind::kHybrid);
  EXPECT_TRUE(std::holds_alternative<UnknownKeywordResponse>(uresp.body));
  EXPECT_NO_THROW(verifier.verify(uresp));
}

}  // namespace
}  // namespace vc
