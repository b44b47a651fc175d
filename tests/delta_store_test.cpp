// Log-structured delta epochs: publish_delta ships O(touched) bytes, the
// store resolves base+delta chains into overlay snapshots, and compaction
// folds chains back into full snapshots — all without changing a single
// proof byte.
//
// The load-bearing property is the same as store_test's, one level up: a
// response proved from a resolved delta chain (before or after compaction,
// in any scheme) must encode byte-for-byte identically to one proved from
// the builder's in-memory snapshot of the same epoch.  That is what makes
// the delta path invisible to verifiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <thread>

#include "hash/sha256.hpp"
#include "obs/metrics.hpp"
#include "store/epoch_codec.hpp"
#include "store/epoch_store.hpp"
#include "store/mapped_file.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

Bytes encode_response(const SearchResponse& resp) {
  ByteWriter w;
  resp.write(w);
  return std::move(w).take();
}

void flip_byte(const fs::path& file, std::size_t offset) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

class DeltaStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "ds", .num_docs = 50, .min_doc_words = 25,
                   .max_doc_words = 55, .vocab_size = 220, .zipf_s = 0.9, .seed = 91};
    bed_ = new testbed::TestBed(spec, testbed::small_config(256, "delta-store"),
                                /*key_seed=*/701, /*threads=*/2);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }

  // Each test gets a fresh store seeded with the builder's current state as
  // its full base epoch (the shared builder mutates monotonically across
  // tests; docIDs are never reused).
  fs::path fresh_root(const std::string& tag) {
    fs::path root = fs::path(::testing::TempDir()) / ("vc_delta_" + tag);
    fs::remove_all(root);
    return root;
  }
  static std::uint64_t publish_base(store::EpochStore& store) {
    SnapshotPtr snap = bed_->vidx.snapshot();
    store.publish(*snap, /*shard_count=*/2);
    bed_->vidx.note_full_publish();
    return snap->epoch();
  }

  // One committed mutation: a document over existing frequent terms plus
  // optional fresh terms, with a strictly increasing docID.
  static void add_doc(const std::string& extra_words = "") {
    auto words = bed_->frequent_terms(4);
    std::vector<Document> docs = {Document{
        next_doc_id_++, "delta-doc",
        words[0] + " " + words[1] + " " + words[2] + " " + extra_words}};
    bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  }

  // Proves the same queries against both snapshots in all four schemes and
  // requires byte-identical canonical encodings (plus verifier acceptance).
  static void expect_proofs_identical(const SnapshotPtr& expect, const SnapshotPtr& got) {
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->epoch(), expect->epoch());
    ASSERT_EQ(got->term_count(), expect->term_count());
    ASSERT_EQ(got->max_posting_count(), expect->max_posting_count());
    SearchEngine want(expect, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
    SearchEngine have(got, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
    ResultVerifier verifier = bed_->owner_verifier();
    auto words = bed_->frequent_terms(3);
    for (SchemeKind scheme : {SchemeKind::kHybrid, SchemeKind::kAccumulator,
                              SchemeKind::kBloom, SchemeKind::kIntervalAccumulator}) {
      Query q{.id = query_id_++, .keywords = {words[0], words[1]}};
      SearchResponse from_want = want.search(q, scheme);
      SearchResponse from_have = have.search(q, scheme);
      EXPECT_NO_THROW(verifier.verify(from_have)) << scheme_name(scheme);
      EXPECT_EQ(encode_response(from_want), encode_response(from_have))
          << scheme_name(scheme);
    }
    // Unknown keyword: the chain's dictionary (possibly shipped by a delta)
    // must produce the identical gap proof.
    Query unknown{.id = query_id_++, .keywords = {"zzzunindexedzzz"}};
    SearchResponse from_want = want.search(unknown, SchemeKind::kHybrid);
    SearchResponse from_have = have.search(unknown, SchemeKind::kHybrid);
    EXPECT_NO_THROW(verifier.verify(from_have));
    EXPECT_EQ(encode_response(from_want), encode_response(from_have));
  }

  static testbed::TestBed* bed_;
  static std::uint32_t next_doc_id_;
  static std::uint64_t query_id_;
};

testbed::TestBed* DeltaStoreTest::bed_ = nullptr;
std::uint32_t DeltaStoreTest::next_doc_id_ = 1000;
std::uint64_t DeltaStoreTest::query_id_ = 1;

TEST_F(DeltaStoreTest, PublishDeltaDrainsDirtyState) {
  fs::path root = fresh_root("drain");
  store::EpochStore store(root);

  // Before any full publish there is no chain base — nothing to ship.
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  std::uint64_t base = publish_base(store);
  EXPECT_EQ(bed_->vidx.last_published_epoch(), base);
  // Clean builder: still nothing to ship.
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  EXPECT_EQ(bed_->vidx.dirty_term_count(), 0u);

  add_doc("freshdrainterm");
  EXPECT_GT(bed_->vidx.dirty_term_count(), 0u);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->base_epoch, base);
  EXPECT_EQ(delta->epoch, bed_->vidx.epoch());
  EXPECT_FALSE(delta->touched.empty());
  EXPECT_TRUE(delta->dict_changed);  // a fresh term rebuilt the dictionary
  // Touched entries are the builder's own (already re-signed at this epoch).
  for (const auto& [term, entry] : delta->touched) {
    EXPECT_EQ(entry.get(), bed_->vidx.find(term)) << term;
  }
  // The drain is one-shot.
  EXPECT_EQ(bed_->vidx.dirty_term_count(), 0u);
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, DeltaChainProofsAreByteIdentical) {
  fs::path root = fresh_root("chain");
  store::EpochStore store(root);
  std::uint64_t base = publish_base(store);

  // Two deltas stacked on the base, the second introducing new terms.
  add_doc();
  auto d1 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d1.has_value());
  store.publish_delta(*d1, /*shard_count=*/2);
  add_doc("chainfreshterm chainfreshterm2");
  auto d2 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->base_epoch, d1->epoch);
  store.publish_delta(*d2, /*shard_count=*/2);

  EXPECT_EQ(store.current_epoch(), d2->epoch);
  store::OpenedEpoch opened = store.open_current();
  EXPECT_EQ(opened.base_epoch, base);
  EXPECT_EQ(opened.chain_length, 2u);
  EXPECT_EQ(opened.shard_count, 2u);
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);

  auto chain = store.current_chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].epoch, d2->epoch);
  EXPECT_TRUE(chain[0].is_delta);
  EXPECT_EQ(chain[1].epoch, d1->epoch);
  EXPECT_TRUE(chain[1].is_delta);
  EXPECT_EQ(chain[2].epoch, base);
  EXPECT_FALSE(chain[2].is_delta);
  EXPECT_FALSE(chain[2].compacted);
  fs::remove_all(root);
}

// A touched term the base epoch already held ships as a patch over its
// base entry: the blob undercuts the term's full interval encoding, a lone
// layered record cannot be served (typed StoreChainError), and the chain
// rebuilds the builder's entry exactly.
TEST_F(DeltaStoreTest, TouchedTermsShipAsPatchesOverTheirBase) {
  fs::path root = fresh_root("patch");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  const std::string hot = porter_stem(bed_->frequent_terms(1)[0]);
  ASSERT_TRUE(delta->touched.contains(hot));
  ASSERT_TRUE(delta->bases.contains(hot));
  const fs::path dir = store.publish_delta(*delta, /*shard_count=*/2);

  EXPECT_THROW((void)store::open_snapshot(std::make_shared<const store::MappedFile>(
                   dir / store::EpochStore::kDeltaFile)),
               store::StoreChainError);

  store::OpenedEpoch chain = store.open_current();
  const IndexEntry& want = *bed_->vidx.find(hot);
  ByteWriter intervals;
  want.tuple_intervals.write(intervals);
  want.doc_intervals.write(intervals);
  // warm() materializes the term and reports its stored blob: the patch.
  EXPECT_LT(chain.snapshot->warm(hot), intervals.size());
  const IndexEntry* got = chain.snapshot->find(hot);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->postings, want.postings);
  EXPECT_EQ(got->tuple_intervals, want.tuple_intervals);
  EXPECT_EQ(got->doc_intervals, want.doc_intervals);
  EXPECT_EQ(got->attestation, want.attestation);
  EXPECT_EQ(got->bloom_attestation, want.bloom_attestation);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, RemovalDeltaDropsTermsAndProofsMatch) {
  // A document whose sacrificial term exists nowhere else: removing the
  // document must remove the term from the overlaid index entirely.
  std::uint32_t victim_id = next_doc_id_++;
  std::string victim_term = normalize_term("zzremovalvictim");
  auto words = bed_->frequent_terms(2);
  std::vector<Document> docs = {
      Document{victim_id, "victim", words[0] + " zzremovalvictim"}};
  bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);

  fs::path root = fresh_root("removal");
  store::EpochStore store(root);
  publish_base(store);
  ASSERT_NE(bed_->vidx.find(victim_term), nullptr);

  U64Set gone = {victim_id};
  bed_->vidx.remove_documents(gone, bed_->owner_ctx, bed_->owner_key);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  EXPECT_NE(std::find(delta->removed.begin(), delta->removed.end(), victim_term),
            delta->removed.end());
  EXPECT_EQ(delta->touched.count(victim_term), 0u);
  store.publish_delta(*delta, /*shard_count=*/2);

  store::OpenedEpoch opened = store.open_current();
  EXPECT_EQ(opened.snapshot->find(victim_term), nullptr);
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);

  // The vanished term now takes the unknown-keyword path; its gap proof
  // must match the builder's (the delta shipped the rebuilt dictionary).
  SearchEngine want(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  SearchEngine have(opened.snapshot, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  Query q{.id = query_id_++, .keywords = {victim_term}};
  EXPECT_EQ(encode_response(want.search(q, SchemeKind::kHybrid)),
            encode_response(have.search(q, SchemeKind::kHybrid)));
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, CompactionPreservesProofsAndShortensChain) {
  fs::path root = fresh_root("compact");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);

  store::CompactionWorker worker(
      store, store::CompactionWorker::Options{.max_chain_length = 2});
  // Chain of 1 is below the worker's threshold — compaction must not fire.
  EXPECT_EQ(worker.run_once(), std::nullopt);
  EXPECT_EQ(worker.runs(), 0u);

  ASSERT_EQ(store.open_current().chain_length, 1u);
  auto compacted = store.compact(/*min_chain_length=*/1);
  ASSERT_TRUE(compacted.has_value());
  EXPECT_EQ(*compacted, delta->epoch);

  store::OpenedEpoch reopened = store.open_current();
  EXPECT_EQ(reopened.chain_length, 0u);
  EXPECT_EQ(reopened.base_epoch, delta->epoch);
  expect_proofs_identical(bed_->vidx.snapshot(), reopened.snapshot);

  // The head directory now holds both files; the chain terminates there.
  auto chain = store.current_chain();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_FALSE(chain[0].is_delta);
  EXPECT_TRUE(chain[0].compacted);
  // Nothing left to fold.
  EXPECT_EQ(store.compact(1), std::nullopt);
  fs::remove_all(root);
}

// Compaction installs the head's snapshot while serving keeps opening the
// head (vcsearch-serve's worker next to publish_from).  An open whose
// first look found only the delta must still resolve once the snapshot
// lands mid-walk.
TEST_F(DeltaStoreTest, CompactionLandingDuringOpenIsServed) {
  fs::path root = fresh_root("landing");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);
  ASSERT_EQ(store.compact(1), delta->epoch);
  const fs::path snap = store.epoch_file(delta->epoch);
  const fs::path aside = root / "compacted.aside";
  fs::rename(snap, aside);

  for (int i = 0; i < 500; ++i) {
    std::atomic<bool> go{false};
    std::thread lander([&] {
      while (!go.load()) {
      }
      fs::copy_file(aside, root / "staged.tmp", fs::copy_options::overwrite_existing);
      fs::rename(root / "staged.tmp", snap);
    });
    go = true;
    for (int k = 0; k < 20; ++k) {
      EXPECT_EQ(store.open_current().snapshot->epoch(), delta->epoch);
    }
    lander.join();
    fs::remove(snap);
  }
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, NoopRepublishIsCountedAndSkipped) {
  fs::path root = fresh_root("noop");
  store::EpochStore store(root);
  SnapshotPtr snap = bed_->vidx.snapshot();
  store.publish(*snap, /*shard_count=*/2);
  bed_->vidx.note_full_publish();

  auto& noop = obs::MetricsRegistry::global().counter("vc_store_noop_publishes_total");
  std::uint64_t before = noop.value();
  auto mtime = fs::last_write_time(store.epoch_file(snap->epoch()));
  store.publish(*snap, /*shard_count=*/2);
  EXPECT_EQ(noop.value(), before + 1);
  // The epoch file was not rewritten.
  EXPECT_EQ(fs::last_write_time(store.epoch_file(snap->epoch())), mtime);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, DanglingDeltaIsRejected) {
  fs::path root = fresh_root("dangling");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  // A base the store has never seen: publishing would brick CURRENT.
  IndexDelta orphan = *delta;
  orphan.base_epoch = delta->base_epoch + 500;
  orphan.epoch = orphan.base_epoch + 1;
  EXPECT_THROW(store.publish_delta(orphan, 2), store::StoreChainError);
  // The real one lands, then its base directory disappearing breaks the walk.
  store.publish_delta(*delta, /*shard_count=*/2);
  fs::remove_all(root / store::EpochStore::epoch_dir_name(delta->base_epoch));
  EXPECT_THROW((void)store.open_current(), store::StoreChainError);
  EXPECT_THROW((void)store.current_chain(), store::StoreChainError);
  fs::remove_all(root);
}

// Every layer of a chain must carry the head's parameters.  Store A holds
// a base epoch under the suite's config, store B a base plus a delta under
// another interval size; B's delta transplanted onto A's base is refused,
// not stacked.
TEST_F(DeltaStoreTest, ChainLayerUnderOtherParamsIsParamMismatch) {
  SynthSpec spec{.name = "mix", .num_docs = 12, .min_doc_words = 10,
                 .max_doc_words = 20, .vocab_size = 60, .zipf_s = 0.9, .seed = 5};
  const Corpus corpus = generate_corpus(spec);
  auto build = [&](const VerifiableIndexConfig& cfg) {
    return IndexBuilder::build(InvertedIndex::build(corpus), bed_->owner_ctx,
                               bed_->owner_key, cfg, bed_->pool);
  };
  VerifiableIndexConfig other = bed_->config;
  other.interval_size += 1;

  const fs::path root_a = fresh_root("params_a");
  const fs::path root_b = fresh_root("params_b");
  store::EpochStore a(root_a);
  store::EpochStore b(root_b);
  IndexBuilder va = build(bed_->config);
  a.publish(*va.snapshot(), /*shard_count=*/2);
  IndexBuilder vb = build(other);
  b.publish(*vb.snapshot(), /*shard_count=*/2);
  vb.note_full_publish();
  std::vector<Document> docs = {Document{spec.num_docs + 100, "mix-doc",
                                         synth_word(spec, 0) + " " + synth_word(spec, 1)}};
  vb.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  auto delta = vb.publish_delta();
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->base_epoch, va.snapshot()->epoch());
  b.publish_delta(*delta, /*shard_count=*/2);
  ASSERT_NO_THROW((void)b.open_current());  // over its own base it resolves

  const std::string head = store::EpochStore::epoch_dir_name(delta->epoch);
  fs::copy(root_b / head, root_a / head, fs::copy_options::recursive);
  std::ofstream(root_a / store::EpochStore::kCurrentFile, std::ios::trunc) << head << "\n";
  ASSERT_EQ(a.current_epoch(), delta->epoch);
  EXPECT_THROW((void)a.open_current(), store::StoreParamMismatchError);
  fs::remove_all(root_a);
  fs::remove_all(root_b);
}

TEST_F(DeltaStoreTest, CorruptDeltaRecordIsRejected) {
  fs::path root = fresh_root("corrupt");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);

  // A delta record is all data — any payload damage fails the open (no
  // tier-style degrade path).
  fs::path file = store.delta_file(delta->epoch);
  std::uintmax_t size = fs::file_size(file);
  flip_byte(file, static_cast<std::size_t>(size / 2));
  EXPECT_THROW((void)store.open_current(), store::StoreCorruptError);

  // And a delta can never be opened as a snapshot.
  EXPECT_THROW(
      (void)store::open_snapshot(std::make_shared<const store::MappedFile>(file)),
      store::StoreCorruptError);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, WitnessTierDegradesPerTouchedTerm) {
  // Tier two hot terms in the base epoch, then touch exactly one of them
  // with a delta: the overlay must keep serving the untouched term from the
  // persisted tier and quietly drop the stale one.
  auto words = bed_->frequent_terms(6);
  // Surface words for queries and document text; normalized forms for the
  // index-level checks (the tier and the delta key entries by stem).
  std::string touched_q = words[4], untouched_q = words[5];
  std::string touched = normalize_term(touched_q), untouched = normalize_term(untouched_q);

  fs::path root = fresh_root("tier");
  store::EpochStore store(root);
  SnapshotPtr snap = bed_->vidx.snapshot();
  bed_->owner_ctx.set_pool(&bed_->pool);
  TierPolicy policy;
  policy.hot_terms = {touched, untouched};
  TierBuildResult tier = build_witness_tier(*snap, bed_->owner_ctx, policy);
  ASSERT_NE(tier.tier, nullptr);
  ASSERT_EQ(tier.tier->term_count(), 2u);
  snap->attach_tier(tier.tier);
  store::TierArtifacts arts{tier.tier, std::move(tier.fixed_base)};
  store.publish(*snap, /*shard_count=*/2, &arts);
  bed_->vidx.note_full_publish();

  std::vector<Document> docs = {Document{next_doc_id_++, "tier-touch", touched_q}};
  bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->touched.count(touched), 1u);
  ASSERT_EQ(delta->touched.count(untouched), 0u);
  store.publish_delta(*delta, /*shard_count=*/2);

  store::OpenedEpoch opened = store.open_current();
  ASSERT_NE(opened.tier, nullptr);
  EXPECT_EQ(opened.tier->term_count(), 1u);
  EXPECT_EQ(opened.tier->find(touched), nullptr);
  EXPECT_NE(opened.tier->find(untouched), nullptr);
  ASSERT_TRUE(opened.fixed_base.has_value());
  // Both terms still prove byte-identically — one from the surviving tier,
  // one through the compute path.
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);
  SearchEngine want(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  SearchEngine have(opened.snapshot, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  for (const std::string& term : {touched_q, untouched_q}) {
    Query q{.id = query_id_++, .keywords = {term}};
    EXPECT_EQ(encode_response(want.search(q, SchemeKind::kHybrid)),
              encode_response(have.search(q, SchemeKind::kHybrid)))
        << term;
  }
  fs::remove_all(root);
}

// The pinned owner update sequence: additions (one bringing a new term, and
// enough postings of one term to split its last interval past
// 2·interval_size), a delta publish, removals (one taking a term's last
// posting), and another delta publish.  `on_full_publish` runs on the
// starting snapshot before the builder notes it as published.
struct PinnedUpdatePath {
  std::optional<IndexDelta> added;
  std::optional<IndexDelta> removed;
};

constexpr std::uint64_t kPinDocs = 24;

SynthSpec pinned_update_spec() {
  return SynthSpec{.name = "pin", .num_docs = kPinDocs, .min_doc_words = 15,
                   .max_doc_words = 30, .vocab_size = 90, .zipf_s = 0.9, .seed = 2401};
}

PinnedUpdatePath run_pinned_update_path(
    testbed::TestBed& bed, const std::function<void(const IndexSnapshot&)>& on_full_publish) {
  PinnedUpdatePath out;
  if (on_full_publish) on_full_publish(*bed.vidx.snapshot());
  bed.vidx.note_full_publish();

  auto words = bed.frequent_terms(2);
  const std::string hot = porter_stem(words[0]);
  const std::size_t hot_intervals = bed.vidx.find(hot)->doc_intervals.interval_count();
  std::vector<Document> docs;
  auto id = static_cast<std::uint32_t>(kPinDocs);
  docs.push_back(Document{id++, "pin-new", words[0] + " pinbrandnewterm"});
  for (int i = 0; i < 17; ++i) {
    docs.push_back(Document{id++, "pin-hot", words[0] + " " + words[1]});
  }
  bed.vidx.add_documents(docs, bed.owner_ctx, bed.owner_key);
  EXPECT_NE(bed.vidx.find("pinbrandnewterm"), nullptr);
  // 18 more postings land in the hot term's last interval: it splits.
  EXPECT_GT(bed.vidx.find(hot)->doc_intervals.interval_count(), hot_intervals + 1);
  out.added = bed.vidx.publish_delta();
  EXPECT_TRUE(out.added.has_value());

  const std::vector<std::uint64_t> gone = {2, 5, kPinDocs, kPinDocs + 3};
  bed.vidx.remove_documents(gone, bed.owner_ctx, bed.owner_key);
  EXPECT_EQ(bed.vidx.find("pinbrandnewterm"), nullptr);
  out.removed = bed.vidx.publish_delta();
  EXPECT_TRUE(out.removed.has_value());
  if (out.removed) {
    EXPECT_NE(std::find(out.removed->removed.begin(), out.removed->removed.end(),
                        "pinbrandnewterm"),
              out.removed->removed.end());
  }
  EXPECT_NO_THROW(bed.vidx.validate(bed.owner_key.verify_key()));
  return out;
}

// Pins the owner update path's output bytes: both delta records and the
// final full record.  Any change to the accumulator, Bloom, interval or
// signing steps of an update, or to the record encoding, shows up as a
// different digest.
TEST(UpdatePathBytes, PinnedDeltasAndFinalSnapshot) {
  testbed::TestBed bed(pinned_update_spec(), testbed::small_config(128, "update-pin"),
                       /*key_seed=*/2402, /*threads=*/2);
  auto digest_hex = [](const Bytes& b) { return to_hex(Sha256::hash(b)); };
  const PinnedUpdatePath run = run_pinned_update_path(bed, nullptr);
  ASSERT_TRUE(run.added.has_value() && run.removed.has_value());

  EXPECT_EQ(digest_hex(store::encode_epoch(*run.added, 1)),
            "d72b5c414a24e34413532b5f14bb8c558542ea4d5877c4476ee54b9aabb88e34");
  EXPECT_EQ(digest_hex(store::encode_epoch(*run.removed, 1)),
            "afa4ffa5284302c7818c73edf4131be532faebfe1b66ce0bf9e0ecdac1cc969a");
  EXPECT_EQ(digest_hex(store::encode_epoch(*bed.vidx.snapshot(), 1)),
            "8927efadd3a8031469bcda8bc0e8db2f31f538edb64ad6abf9e50eaab2f8df3a");
}

// Canonical digest of what a record decodes to for `terms`: each term's
// two interval trees (root; per interval its descriptor, member list and
// middle witness) and both attestation signatures.  It reads the decoded
// objects, not the record bytes, so a change to the record encoding
// leaves it alone while any moved root, descriptor, member or signature
// changes it.
std::string decoded_content_digest(const IndexSnapshot& snap,
                                   const std::vector<std::string>& terms) {
  ByteWriter w;
  auto write_tree = [&](const IntervalIndex& tree) {
    tree.root().write(w);
    w.varint(tree.interval_count());
    for (std::size_t k = 0; k < tree.interval_count(); ++k) {
      tree.descriptor(k).write(w);
      const auto members = tree.interval_members(k);
      w.varint(members.size());
      for (std::uint64_t m : members) w.u64(m);
      tree.mid_witness(k).write(w);
    }
  };
  for (const std::string& term : terms) {
    const IndexEntry* entry = snap.find(term);
    EXPECT_NE(entry, nullptr) << term;
    if (entry == nullptr) continue;
    w.str(term);
    write_tree(entry->tuple_intervals);
    write_tree(entry->doc_intervals);
    entry->attestation.sig.write(w);
    entry->bloom_attestation.sig.write(w);
  }
  return to_hex(Sha256::hash(w.data()));
}

std::vector<std::string> touched_terms(const IndexDelta& delta) {
  std::vector<std::string> terms;
  for (const auto& [term, entry] : delta.touched) terms.push_back(term);
  return terms;
}

// The same sequence as PinnedDeltasAndFinalSnapshot, digested after a
// decode: both delta records reopened through the store's chain (their
// touched terms) and the final full record through open_snapshot (every
// term).  Record layout changes re-pin the test above; this one must not
// move unless a proof-relevant value does.
TEST(UpdatePathBytes, PinnedDecodedContent) {
  testbed::TestBed bed(pinned_update_spec(), testbed::small_config(128, "update-pin"),
                       /*key_seed=*/2402, /*threads=*/2);
  const fs::path root = fs::path(::testing::TempDir()) / "vc_update_pin_content";
  fs::remove_all(root);
  store::EpochStore store(root);
  const PinnedUpdatePath run = run_pinned_update_path(
      bed, [&](const IndexSnapshot& snap) { store.publish(snap, /*shard_count=*/1); });
  ASSERT_TRUE(run.added.has_value() && run.removed.has_value());
  store.publish_delta(*run.added, /*shard_count=*/1);
  store.publish_delta(*run.removed, /*shard_count=*/1);

  const store::OpenedEpoch added = store.open_epoch(run.added->epoch);
  const store::OpenedEpoch removed = store.open_epoch(run.removed->epoch);
  const fs::path full_file = root / "final.vcs";
  {
    const Bytes full = store::encode_epoch(*bed.vidx.snapshot(), 1);
    std::ofstream out(full_file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(full.size()));
  }
  const store::OpenedEpoch final_record =
      store::open_snapshot(std::make_shared<const store::MappedFile>(full_file));
  std::vector<std::string> all_terms;
  for (const auto& [term, entry] : final_record.snapshot->entries()) all_terms.push_back(term);

  EXPECT_EQ(decoded_content_digest(*added.snapshot, touched_terms(*run.added)),
            "b2514aaa33e7775640bc787aa7df0bcae729786d1b883facc3922c191be9067d");
  EXPECT_EQ(decoded_content_digest(*removed.snapshot, touched_terms(*run.removed)),
            "e4b97b6845540aed4cd242ca93ec37be6767321cf17af9d34fb892ba8911eea8");
  EXPECT_EQ(decoded_content_digest(*final_record.snapshot, all_terms),
            "4451b14850e83f7c8bbe9bf1f9fe0b596952b7a8a21847b7486490b07c2fa4bf");
  fs::remove_all(root);
}

}  // namespace
}  // namespace vc
