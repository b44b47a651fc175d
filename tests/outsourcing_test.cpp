// Outsourcing-flow tests: the owner publishes the verifiable index into the
// epoch store, the cloud reopens it (IndexBuilder::from_snapshot over the
// store's CURRENT epoch), validates every signature (the "acknowledge
// receipt" step of Fig 1), and serves proofs from the reopened copy.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "store/epoch_codec.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

class OutsourcingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "out", .num_docs = 50, .min_doc_words = 25,
                   .max_doc_words = 60, .vocab_size = 250, .zipf_s = 0.9, .seed = 61};
    bed_ = new testbed::TestBed(spec, testbed::small_config(256, "outsource"),
                                /*key_seed=*/501, /*threads=*/2);
    // Per process: ctest -j runs this suite's tests concurrently.
    root_ = fs::temp_directory_path() /
            ("vc_outsource_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    publish_original(root_ / "store");
  }
  static void TearDownTestSuite() {
    fs::remove_all(root_);
    delete bed_;
  }

  // The owner's outsourcing step: publish the built epoch into a store.
  static void publish_original(const fs::path& store_dir) {
    store::EpochStore store(store_dir);
    store.publish(*bed_->vidx.snapshot(), /*shard_count=*/1);
  }

  // The cloud's receipt: reopen a builder over the store's CURRENT epoch.
  static IndexBuilder reopen(const fs::path& store_dir) {
    store::EpochStore store(store_dir);
    return IndexBuilder::from_snapshot(store.open_current().snapshot);
  }

  static Bytes read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }

  static testbed::TestBed* bed_;
  static fs::path root_;
};

testbed::TestBed* OutsourcingTest::bed_ = nullptr;
fs::path OutsourcingTest::root_;

TEST_F(OutsourcingTest, LoadedIndexMatchesOriginal) {
  IndexBuilder loaded = reopen(root_ / "store");
  EXPECT_EQ(loaded.epoch(), bed_->vidx.epoch());
  EXPECT_EQ(loaded.term_count(), bed_->vidx.term_count());
  EXPECT_EQ(loaded.index(), bed_->vidx.index());
  EXPECT_EQ(loaded.dict_attestation(), bed_->vidx.dict_attestation());
  for (const auto& term : bed_->vidx.index().dictionary()) {
    const auto* a = bed_->vidx.find(term);
    const auto* b = loaded.find(term);
    ASSERT_NE(b, nullptr) << term;
    EXPECT_EQ(a->attestation, b->attestation) << term;
    EXPECT_EQ(a->bloom_attestation, b->bloom_attestation) << term;
    EXPECT_EQ(a->tuple_intervals, b->tuple_intervals) << term;
    EXPECT_EQ(a->doc_intervals, b->doc_intervals) << term;
    EXPECT_EQ(a->postings, b->postings) << term;
  }
  // Prime caches travelled with the epoch: every representative the owner
  // computed resolves from the store without a recompute, to the same prime.
  auto expect_same_primes = [](PrimeCache& original, PrimeCache& reopened) {
    auto want = original.sorted_entries();
    EXPECT_EQ(reopened.merged_entries().size(), want.size());
    for (const auto& [element, prime] : want) {
      Bigint got;
      ASSERT_TRUE(reopened.try_get(element, got)) << element;
      EXPECT_EQ(got, prime) << element;
    }
  };
  expect_same_primes(bed_->vidx.tuple_primes(), loaded.tuple_primes());
  expect_same_primes(bed_->vidx.doc_primes(), loaded.doc_primes());
}

TEST_F(OutsourcingTest, ValidationAcceptsHonestArtifact) {
  IndexBuilder loaded = reopen(root_ / "store");
  EXPECT_NO_THROW(loaded.validate(bed_->owner_key.verify_key()));
}

TEST_F(OutsourcingTest, ValidationRejectsWrongOwnerKey) {
  IndexBuilder loaded = reopen(root_ / "store");
  DeterministicRng rng(502);
  SigningKey other = generate_signing_key(rng, 512);
  EXPECT_THROW(loaded.validate(other.verify_key()), VerifyError);
}

TEST_F(OutsourcingTest, LoadedIndexServesVerifiableProofs) {
  IndexBuilder loaded = reopen(root_ / "store");
  SearchEngine engine(loaded.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  ResultVerifier verifier = bed_->owner_verifier();
  Query q{.id = 1, .keywords = {synth_word(bed_->spec, 5), synth_word(bed_->spec, 9)}};
  for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                            SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
    SearchResponse resp = engine.search(q, scheme);
    EXPECT_NO_THROW(verifier.verify(resp)) << scheme_name(scheme);
  }
}

TEST_F(OutsourcingTest, UpdatedIndexRoundtripsAndValidates) {
  fs::path store_dir = root_ / "updated";
  publish_original(store_dir);
  IndexBuilder loaded = reopen(store_dir);
  std::vector<Document> docs = {
      Document{50, "new",
               synth_word(bed_->spec, 5) + " " + synth_word(bed_->spec, 9) + " brandnewterm"}};
  loaded.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  EXPECT_NO_THROW(loaded.validate(bed_->owner_key.verify_key()));
  auto delta = loaded.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store::EpochStore(store_dir).publish_delta(*delta, /*shard_count=*/1);
  IndexBuilder again = reopen(store_dir);
  EXPECT_EQ(again.epoch(), loaded.epoch());
  EXPECT_NO_THROW(again.validate(bed_->owner_key.verify_key()));
  EXPECT_NE(again.find("brandnewterm"), nullptr);
}

TEST_F(OutsourcingTest, ReopenedBuilderPublishesByteIdenticalDelta) {
  // The owner that never left memory and the owner that reopened its
  // builder from the store must ship the same delta bytes, round after
  // round — including a round that adds terms (dictionary rebuild).
  IndexBuilder in_memory = bed_->vidx;  // entries are copy-on-write
  in_memory.note_full_publish();
  IndexBuilder reopened = reopen(root_ / "store");
  EXPECT_EQ(reopened.last_published_epoch(), in_memory.last_published_epoch());
  std::string w5 = synth_word(bed_->spec, 5), w9 = synth_word(bed_->spec, 9);
  const std::vector<std::vector<Document>> rounds = {
      {Document{50, "a", w5 + " " + w9 + " reopenfreshterm"}},
      {Document{51, "b", w9 + " " + synth_word(bed_->spec, 2)},
       Document{53, "c", w5 + " anotherfreshterm"}},
  };
  for (const auto& docs : rounds) {
    in_memory.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
    reopened.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
    auto want = in_memory.publish_delta();
    auto got = reopened.publish_delta();
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->base_epoch, want->base_epoch);
    EXPECT_EQ(store::encode_epoch(*got, 1), store::encode_epoch(*want, 1));
  }
}

TEST_F(OutsourcingTest, TamperedArtifactDetectedByValidation) {
  // Flip a byte of the published snapshot file and expect the store open
  // (header, section-table and per-section CRC checks) or the receipt check
  // to reject it, never silent acceptance.
  const fs::path original = root_ / "store";
  const fs::path snapshot_file =
      store::EpochStore(original).epoch_file(bed_->vidx.epoch());
  const Bytes raw = read_file(snapshot_file);
  ASSERT_FALSE(raw.empty());
  const fs::path tampered = root_ / "tampered";
  DeterministicRng rng(503);
  int silent = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Bytes mutated = raw;
    mutated[rng.below(mutated.size())] ^= 0x40;
    fs::remove_all(tampered);
    fs::copy(original, tampered, fs::copy_options::recursive);
    {
      std::ofstream out(tampered / fs::relative(snapshot_file, original),
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(mutated.data()),
                static_cast<std::streamsize>(mutated.size()));
    }
    try {
      IndexBuilder t = reopen(tampered);
      t.validate(bed_->owner_key.verify_key());
      ++silent;  // flip hit an unchecked header byte (reserved/padding, shard count)
    } catch (const Error&) {
      // rejected — good
    }
  }
  // Every section is CRC'd, so only a few header bytes can pass silently.
  EXPECT_LT(silent, 10);
}

TEST(SigningKeyPersistence, SaveLoadRoundtrip) {
  DeterministicRng rng(504);
  SigningKey key = generate_signing_key(rng, 512);
  auto p = (std::filesystem::temp_directory_path() / "vc_key_test.key").string();
  key.save(p);
  SigningKey loaded = SigningKey::load(p);
  EXPECT_EQ(loaded.verify_key(), key.verify_key());
  Signature sig = loaded.sign("persisted");
  EXPECT_TRUE(key.verify_key().verify("persisted", sig));
  EXPECT_EQ(sig, key.sign("persisted"));
  std::filesystem::remove(p);
  EXPECT_THROW(SigningKey::load("/nonexistent/key"), UsageError);
}

}  // namespace
}  // namespace vc
