// Witness-tier subsystem: Shamir aggregation correctness, byte-identity of
// tiered proofs across every scheme, hotness/budget policy, store format v2
// round trips, tier-section corruption handling, and concurrent lazy
// materialization (run under TSan in CI).
//
// The load-bearing property mirrors the store suite's: witness residues are
// unique, so a proof served from materialized tables must equal the
// computed proof bit for bit — the tier is a latency structure, never a
// semantic one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "accumulator/batch_witness.hpp"
#include "accumulator/witness.hpp"
#include "primes/prime_cache.hpp"
#include "store/epoch_store.hpp"
#include "test_fixtures.hpp"
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

std::uint64_t pow_count() {
  return obs::MetricsRegistry::global().counter("vc_pow_total", "").value();
}
std::uint64_t tier_hits() {
  return obs::MetricsRegistry::global().counter("vc_witness_tier_hits", "").value();
}
std::uint64_t tier_misses() {
  return obs::MetricsRegistry::global().counter("vc_witness_tier_misses", "").value();
}

// Hand-built corpus with full control over posting lists: `kHot` hot terms
// in every doc (the flat compute path is a full-width modexp), one selector
// per hot term in 4 docs spread one per interval-tree stride (so tiered
// interval groups are singletons, under the Shamir profitability
// crossover), plus a low-frequency filler tail for the ranking tests.
constexpr std::size_t kDocs = 64;
constexpr std::size_t kHot = 4;
constexpr std::size_t kSel = 4;  // selector docs per selector term

class WitnessTierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Corpus corpus("tier");
    for (std::size_t d = 0; d < kDocs; ++d) {
      std::string text;
      for (std::size_t i = 0; i < kHot; ++i) text += hot(i) + " ";
      if (d % (kDocs / kSel) == 0) {
        for (std::size_t i = 0; i < kHot; ++i) text += sel(i) + " ";
      }
      text += "fillerz" + std::string(1 + d / 26, static_cast<char>('a' + d % 26));
      corpus.add("d" + std::to_string(d), std::move(text));
    }
    config_ = new VerifiableIndexConfig(testbed::small_config(256, "vc.tiertest.bloom"));
    owner_ctx_ = new AccumulatorContext(AccumulatorContext::owner(
        standard_accumulator_modulus(config_->modulus_bits),
        standard_qr_generator(config_->modulus_bits)));
    DeterministicRng rng(31, "vc.tiertest.keys");
    owner_key_ = new SigningKey(generate_signing_key(rng, config_->modulus_bits));
    cloud_key_ = new SigningKey(generate_signing_key(rng, config_->modulus_bits));
    pool_ = new ThreadPool(2);
    owner_ctx_->set_pool(pool_);
    vidx_ = new IndexBuilder(IndexBuilder::build(InvertedIndex::build(corpus), *owner_ctx_,
                                                 *owner_key_, *config_, *pool_));
    snap_ = new SnapshotPtr(vidx_->snapshot());

    pub_ctx_ = new AccumulatorContext(AccumulatorContext::public_side(owner_ctx_->params()));
    pub_ctx_->set_pool(pool_);
    pub_ctx_->enable_fixed_base(((*snap_)->max_posting_count() + 1) * config_->rep_bits);

    TierPolicy policy;
    for (std::size_t i = 0; i < kHot; ++i) {
      policy.hot_terms.push_back(normalize_term(hot(i)));
      policy.hot_terms.push_back(normalize_term(sel(i)));
    }
    built_ = new TierBuildResult(build_witness_tier(**snap_, *owner_ctx_, policy));
    ASSERT_NE(built_->tier, nullptr);
    ASSERT_EQ(built_->tier->term_count(), 2 * kHot);
  }
  static void TearDownTestSuite() {
    delete built_;
    delete pub_ctx_;
    delete snap_;
    delete vidx_;
    delete pool_;
    delete cloud_key_;
    delete owner_key_;
    delete owner_ctx_;
    delete config_;
    built_ = nullptr;
  }

  static std::string hot(std::size_t i) { return std::string("hotz") + char('a' + i); }
  static std::string sel(std::size_t i) { return std::string("selz") + char('a' + i); }

  // Engine over the shared snapshot with the given tier attached.  The
  // prover captures the tier at construction, so attach-then-build; the
  // snapshot is left untiered for the next caller.
  static std::unique_ptr<SearchEngine> make_engine(
      std::shared_ptr<const WitnessTier> tier) {
    (*snap_)->attach_tier(std::move(tier));
    auto engine = std::make_unique<SearchEngine>(*snap_, *pub_ctx_, *cloud_key_, pool_);
    (*snap_)->attach_tier(nullptr);
    return engine;
  }

  static ResultVerifier verifier() {
    return ResultVerifier(*owner_ctx_, owner_key_->verify_key(), cloud_key_->verify_key(),
                          *config_);
  }

  static std::vector<Query> pair_queries() {
    std::vector<Query> out;
    for (std::size_t i = 0; i < kHot; ++i) {
      out.push_back(Query{.id = i + 1, .keywords = {hot(i), sel(i)}});
    }
    return out;
  }

  static VerifiableIndexConfig* config_;
  static AccumulatorContext* owner_ctx_;
  static AccumulatorContext* pub_ctx_;
  static SigningKey* owner_key_;
  static SigningKey* cloud_key_;
  static ThreadPool* pool_;
  static IndexBuilder* vidx_;
  static SnapshotPtr* snap_;
  static TierBuildResult* built_;
};

VerifiableIndexConfig* WitnessTierTest::config_ = nullptr;
AccumulatorContext* WitnessTierTest::owner_ctx_ = nullptr;
AccumulatorContext* WitnessTierTest::pub_ctx_ = nullptr;
SigningKey* WitnessTierTest::owner_key_ = nullptr;
SigningKey* WitnessTierTest::cloud_key_ = nullptr;
ThreadPool* WitnessTierTest::pool_ = nullptr;
IndexBuilder* WitnessTierTest::vidx_ = nullptr;
SnapshotPtr* WitnessTierTest::snap_ = nullptr;
TierBuildResult* WitnessTierTest::built_ = nullptr;

// --- aggregation core --------------------------------------------------------

TEST(TieredSubsetWitness, MatchesDirectComplementWitness) {
  auto ctx = AccumulatorContext::public_side(AccumulatorParams{
      standard_accumulator_modulus(512).n, standard_qr_generator(512)});
  PrimeCache primes(PrimeRepConfig{.rep_bits = 64, .domain = "vc.tiertest.unit",
                                   .mr_rounds = 24});
  constexpr std::size_t kSet = 24;
  WitnessSubTable table;
  std::vector<Bigint> reps;
  for (std::uint64_t v = 0; v < kSet; ++v) {
    table.keys.push_back(v);
    reps.push_back(primes.get(v));
  }
  table.witnesses = batch_membership_witnesses(ctx, reps);

  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::uint64_t> subset;
    for (std::size_t i = 0; i < k; ++i) subset.push_back(i * 5);  // spread, sorted
    auto got = tiered_subset_witness(ctx, table, subset, kSet, primes);
    ASSERT_TRUE(got.has_value()) << "k=" << k;
    std::vector<Bigint> rest;
    for (std::uint64_t v = 0; v < kSet; ++v) {
      if (!std::binary_search(subset.begin(), subset.end(), v)) rest.push_back(primes.get(v));
    }
    EXPECT_EQ(*got, membership_witness(ctx, rest)) << "k=" << k;
  }

  // Whole set: the empty complement product, exactly mod(g, n).
  std::vector<std::uint64_t> all(table.keys);
  EXPECT_EQ(tiered_subset_witness(ctx, table, all, kSet, primes),
            Bigint::mod(ctx.g(), ctx.n()));
  // Unknown keys and past-crossover subsets miss (fallback to compute path).
  std::vector<std::uint64_t> missing{99};
  EXPECT_FALSE(tiered_subset_witness(ctx, table, missing, kSet, primes).has_value());
  std::vector<std::uint64_t> big;
  for (std::uint64_t v = 0; v < 12; ++v) big.push_back(v);  // 12·bit_width(12) > 24
  EXPECT_FALSE(tiered_subset_witness(ctx, table, big, kSet, primes).has_value());
  // Empty subsets are the caller's (attested-accumulator) fast path.
  EXPECT_FALSE(tiered_subset_witness(ctx, table, {}, kSet, primes).has_value());
}

TEST(TieredSubsetWitness, SingletonLookupIsZeroModexp) {
  auto ctx = AccumulatorContext::public_side(AccumulatorParams{
      standard_accumulator_modulus(512).n, standard_qr_generator(512)});
  PrimeCache primes(PrimeRepConfig{.rep_bits = 64, .domain = "vc.tiertest.zero",
                                   .mr_rounds = 24});
  WitnessSubTable table;
  std::vector<Bigint> reps;
  for (std::uint64_t v = 0; v < 8; ++v) {
    table.keys.push_back(v);
    reps.push_back(primes.get(v));
  }
  table.witnesses = batch_membership_witnesses(ctx, reps);
  std::uint64_t before = pow_count();
  std::vector<std::uint64_t> one{3};
  auto got = tiered_subset_witness(ctx, table, one, 8, primes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(pow_count(), before);  // pure table lookup — zero modexp online
  EXPECT_EQ(*got, table.witnesses[3]);
}

// --- end-to-end byte identity ------------------------------------------------

TEST_F(WitnessTierTest, TieredProofsByteIdenticalAcrossSchemes) {
  auto plain = make_engine(nullptr);
  auto tiered = make_engine(built_->tier);
  ResultVerifier v = verifier();
  std::uint64_t hits0 = tier_hits(), miss0 = tier_misses();
  for (const Query& q : pair_queries()) {
    for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                              SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
      SearchResponse base = plain->search(q, scheme);
      SearchResponse fast = tiered->search(q, scheme);
      EXPECT_NO_THROW(v.verify(fast)) << scheme_name(scheme);
      EXPECT_EQ(encode_response(base), encode_response(fast)) << scheme_name(scheme);
    }
  }
  EXPECT_GT(tier_hits(), hits0);    // the fast path actually served
  EXPECT_EQ(tier_misses(), miss0);  // fully tiered pairs never fall back
}

TEST_F(WitnessTierTest, PartialTierFallsBackCleanly) {
  // Tier only pair 0; queries on pair 1 must fall back (counted as misses)
  // with byte-identical output.
  TierPolicy policy;
  policy.hot_terms = {normalize_term(hot(0)), normalize_term(sel(0))};
  TierBuildResult partial = build_witness_tier(**snap_, *owner_ctx_, policy);
  ASSERT_NE(partial.tier, nullptr);
  EXPECT_EQ(partial.tier->term_count(), 2u);
  EXPECT_EQ(partial.tier->find(normalize_term(hot(1))), nullptr);
  EXPECT_NE(partial.tier->find(normalize_term(hot(0))), nullptr);

  auto plain = make_engine(nullptr);
  auto tiered = make_engine(partial.tier);
  ResultVerifier v = verifier();
  Query miss_q{.id = 9, .keywords = {hot(1), sel(1)}};
  std::uint64_t hits0 = tier_hits(), miss0 = tier_misses();
  for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kIntervalAccumulator}) {
    SearchResponse base = plain->search(miss_q, scheme);
    SearchResponse fast = tiered->search(miss_q, scheme);
    EXPECT_NO_THROW(v.verify(fast));
    EXPECT_EQ(encode_response(base), encode_response(fast)) << scheme_name(scheme);
  }
  EXPECT_EQ(tier_hits(), hits0);
  EXPECT_GT(tier_misses(), miss0);
}

// --- policy ------------------------------------------------------------------

TEST_F(WitnessTierTest, RankHotTermsPolicies) {
  const IndexSnapshot& snap = **snap_;
  // Explicit list: order kept, duplicates and unindexed terms dropped.
  TierPolicy explicit_p;
  explicit_p.hot_terms = {normalize_term(hot(2)), "zzznotindexed", normalize_term(hot(2)),
                          normalize_term(sel(1))};
  EXPECT_EQ(rank_hot_terms(snap, explicit_p),
            (std::vector<std::string>{normalize_term(hot(2)), normalize_term(sel(1))}));

  // Document-frequency fallback: every hot term (df=64) outranks every
  // selector (df=4) and filler (df≈1); top_k truncates.
  TierPolicy df_p;
  df_p.top_k = kHot;
  std::vector<std::string> ranked = rank_hot_terms(snap, df_p);
  ASSERT_EQ(ranked.size(), kHot);
  for (const std::string& t : ranked) {
    ASSERT_NE(snap.find(t), nullptr);
    EXPECT_EQ(snap.find(t)->postings.size(), kDocs) << t;
  }

  // Shard-traffic hotness: give one hot term's shard all the traffic and
  // the winner must come from that shard.
  constexpr std::size_t kShards = 4;
  TierPolicy traffic_p;
  traffic_p.top_k = 1;
  traffic_p.shard_query_counts.assign(kShards, 0);
  traffic_p.shard_query_counts[term_shard(normalize_term(hot(1)), kShards)] = 1000;
  std::vector<std::string> hot_first = rank_hot_terms(snap, traffic_p);
  ASSERT_EQ(hot_first.size(), 1u);
  EXPECT_EQ(term_shard(hot_first[0], kShards),
            term_shard(normalize_term(hot(1)), kShards));

  // The metrics bridge reads vc_shard_queries_total per shard label.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("vc_shard_queries_total", "shard=\"0\"").inc();
  std::vector<std::uint64_t> counts = shard_query_counts_from_metrics(2);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], reg.counter("vc_shard_queries_total", "shard=\"0\"").value());
}

TEST_F(WitnessTierTest, BudgetCapsGreedilyByHotness) {
  // A budget covering the fixed-base image plus ~1.5 hot-term tables keeps
  // the hottest candidate and skips the rest (greedy in policy order).
  const TermWitnessTable* hot_table = built_->tier->find(normalize_term(hot(0)));
  ASSERT_NE(hot_table, nullptr);
  TierPolicy policy;
  for (std::size_t i = 0; i < kHot; ++i) policy.hot_terms.push_back(normalize_term(hot(i)));
  policy.budget_bytes = built_->fixed_base_bytes + hot_table->byte_size +
                        hot_table->byte_size / 2;
  TierBuildResult capped = build_witness_tier(**snap_, *owner_ctx_, policy);
  ASSERT_NE(capped.tier, nullptr);
  EXPECT_EQ(capped.tier->term_count(), 1u);
  EXPECT_NE(capped.tier->find(normalize_term(hot(0))), nullptr);
  EXPECT_EQ(capped.terms_considered, kHot);
  EXPECT_EQ(capped.terms_skipped, kHot - 1);
  EXPECT_LE(capped.fixed_base_bytes + capped.table_bytes, policy.budget_bytes);

  // A budget below even the fixed-base image tieres nothing.
  policy.budget_bytes = 16;
  TierBuildResult none = build_witness_tier(**snap_, *owner_ctx_, policy);
  EXPECT_EQ(none.tier, nullptr);
  EXPECT_EQ(none.terms_skipped, kHot);
}

// --- persistence (format v2) -------------------------------------------------

class TieredStoreTest : public WitnessTierTest {
 protected:
  static void SetUpTestSuite() {
    WitnessTierTest::SetUpTestSuite();
    fs::remove_all(store_root());
  }
  static void TearDownTestSuite() {
    fs::remove_all(store_root());
    WitnessTierTest::TearDownTestSuite();
  }

  // Per-process root: gtest_discover_tests runs every case as its own ctest
  // process, and parallel siblings must not wipe each other's store.
  static fs::path store_root() {
    return fs::path(::testing::TempDir()) /
           ("vc_tier_store." + std::to_string(::getpid()));
  }
  static fs::path published_file() {
    store::EpochStore store(store_root());
    if (!store.has_current()) {
      store::TierArtifacts artifacts{built_->tier, built_->fixed_base};
      store.publish(**snap_, /*shard_count=*/1, &artifacts);
    }
    return store.epoch_file(store.current_epoch().value());
  }
  static fs::path scratch_copy(const std::string& tag) {
    fs::path dst = store_root() / ("scratch-" + tag + ".vcs");
    fs::copy_file(published_file(), dst, fs::copy_options::overwrite_existing);
    return dst;
  }
  static void flip_byte(const fs::path& file, std::size_t offset) {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }
  // Offset of the middle of a section's payload in the published file.
  static std::size_t section_mid(store::SectionId id) {
    store::MappedFile file(published_file());
    store::StoreFileInfo info = store::inspect_file(file);
    for (const auto& s : info.sections) {
      if (s.id == id) return static_cast<std::size_t>(s.offset + s.size / 2);
    }
    ADD_FAILURE() << "section not found: " << store::section_name(id);
    return 0;
  }
};

TEST_F(TieredStoreTest, TieredEpochRoundTripsWithByteIdenticalProofs) {
  published_file();  // publish-on-first-use
  store::OpenedEpoch opened = store::EpochStore(store_root()).open_current();
  ASSERT_NE(opened.tier, nullptr);
  EXPECT_FALSE(opened.tier_degraded);
  EXPECT_EQ(opened.tier->term_count(), built_->tier->term_count());
  EXPECT_EQ(opened.tier->table_bytes(), built_->tier->table_bytes());
  EXPECT_EQ(opened.snapshot->witness_tier(), opened.tier);
  ASSERT_TRUE(opened.fixed_base.has_value());
  EXPECT_EQ(opened.fixed_base->base, pub_ctx_->g());
  EXPECT_EQ(opened.fixed_base->capacity_bits, built_->fixed_base.capacity_bits);

  auto plain = make_engine(nullptr);
  SearchEngine mapped(opened.snapshot, *pub_ctx_, *cloud_key_, pool_);
  ResultVerifier v = verifier();
  std::uint64_t hits0 = tier_hits();
  for (const Query& q : pair_queries()) {
    for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                              SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
      SearchResponse base = plain->search(q, scheme);
      SearchResponse fast = mapped.search(q, scheme);
      EXPECT_NO_THROW(v.verify(fast)) << scheme_name(scheme);
      EXPECT_EQ(encode_response(base), encode_response(fast)) << scheme_name(scheme);
    }
  }
  EXPECT_GT(tier_hits(), hits0);
}

TEST_F(TieredStoreTest, LazyTierMaterializesWithoutRecompute) {
  published_file();  // publish-on-first-use
  store::OpenedEpoch opened = store::EpochStore(store_root()).open_current();
  ASSERT_NE(opened.tier, nullptr);
  std::string term = normalize_term(hot(0));
  std::uint64_t before = pow_count();
  const TermWitnessTable* table = opened.tier->find(term);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(opened.tier->find(term), table);  // cached, same materialization
  EXPECT_EQ(pow_count(), before);  // parsing mapped tables runs zero modexps
  EXPECT_EQ(table->flat_tuple.size(), kDocs);
  EXPECT_EQ(table->flat_doc.size(), kDocs);
  // Mapped tables carry the exact residues the eager builder produced.
  const TermWitnessTable* eager = built_->tier->find(term);
  ASSERT_NE(eager, nullptr);
  EXPECT_EQ(table->flat_tuple.keys, eager->flat_tuple.keys);
  EXPECT_EQ(table->flat_tuple.witnesses, eager->flat_tuple.witnesses);
  EXPECT_EQ(table->interval_doc.witnesses, eager->interval_doc.witnesses);
}

TEST_F(TieredStoreTest, InspectReportsTierSections) {
  store::MappedFile file(published_file());
  store::StoreFileInfo info = store::inspect_file(file);
  EXPECT_EQ(info.format_version, store::kFormatVersionTiered);
  ASSERT_EQ(info.sections.size(), 9u);
  bool saw_dir = false, saw_tables = false, saw_fb = false;
  for (const auto& s : info.sections) {
    EXPECT_TRUE(s.crc_ok) << store::section_name(s.id);
    saw_dir = saw_dir || s.id == store::SectionId::kWitnessTierDir;
    saw_tables = saw_tables || s.id == store::SectionId::kWitnessTables;
    saw_fb = saw_fb || s.id == store::SectionId::kFixedBase;
  }
  EXPECT_TRUE(saw_dir && saw_tables && saw_fb);
  EXPECT_EQ(info.tier_terms, built_->tier->term_count());
  EXPECT_EQ(info.tier_table_bytes, built_->tier->table_bytes());
}

TEST_F(TieredStoreTest, UntieredPublishStaysFormatV1) {
  fs::path root = fs::path(::testing::TempDir()) / "vc_tier_v1";
  fs::remove_all(root);
  store::EpochStore store(root);
  store.publish(**snap_, 1);  // no tier artifacts
  store::MappedFile file(store.epoch_file(store.current_epoch().value()));
  store::StoreFileInfo info = store::inspect_file(file);
  EXPECT_EQ(info.format_version, store::kFormatVersion);
  EXPECT_EQ(info.sections.size(), 6u);
  // A null tier inside artifacts normalizes to v1 too.
  store::TierArtifacts empty{nullptr, built_->fixed_base};
  Bytes with_null = store::encode_snapshot(**snap_, 1, &empty);
  Bytes without = store::encode_snapshot(**snap_, 1, nullptr);
  EXPECT_EQ(with_null, without);
  fs::remove_all(root);
}

TEST_F(TieredStoreTest, PreTierReaderRejectsTieredFileWithTypedError) {
  auto file = std::make_shared<const store::MappedFile>(published_file());
  store::OpenOptions old_reader;
  old_reader.max_format_version = store::kFormatVersion;  // a v1-era binary
  EXPECT_THROW(store::open_snapshot(file, old_reader), store::StoreCorruptError);
  // The same file opens fine at the current ceiling.
  EXPECT_NO_THROW(store::open_snapshot(
      std::make_shared<const store::MappedFile>(published_file()), store::OpenOptions{}));
}

TEST_F(TieredStoreTest, TierSectionCorruptionThrowsTypedOrDegrades) {
  fs::path p = scratch_copy("tiercorrupt");
  flip_byte(p, section_mid(store::SectionId::kWitnessTables));
  // Default open: corruption anywhere is a hard typed error.
  EXPECT_THROW(
      store::open_snapshot(std::make_shared<const store::MappedFile>(p), store::OpenOptions{}),
      store::StoreCorruptError);
  // Degraded open: the tier is a cache over the base sections, so serving
  // may continue untiered — with proofs still byte-identical.
  store::OpenedEpoch degraded = store::open_snapshot(
      std::make_shared<const store::MappedFile>(p),
      store::OpenOptions{.degrade_tier_on_corruption = true});
  EXPECT_TRUE(degraded.tier_degraded);
  EXPECT_EQ(degraded.tier, nullptr);
  EXPECT_EQ(degraded.snapshot->witness_tier(), nullptr);
  EXPECT_FALSE(degraded.fixed_base.has_value());

  auto plain = make_engine(nullptr);
  SearchEngine fallback(degraded.snapshot, *pub_ctx_, *cloud_key_, pool_);
  Query q{.id = 21, .keywords = {hot(0), sel(0)}};
  EXPECT_EQ(encode_response(plain->search(q, SchemeKind::kAccumulator)),
            encode_response(fallback.search(q, SchemeKind::kAccumulator)));

  // Base-section corruption is never degradable.
  fs::path base_bad = scratch_copy("basecorrupt");
  flip_byte(base_bad, section_mid(store::SectionId::kEntries));
  EXPECT_THROW(store::open_snapshot(
                   std::make_shared<const store::MappedFile>(base_bad),
                   store::OpenOptions{.degrade_tier_on_corruption = true}),
               store::StoreCorruptError);
}

TEST_F(TieredStoreTest, ConcurrentHitMissHammerOverLazyTier) {
  // Race lazy tier materialization (call_once slots) and the hit/miss fast
  // paths from many threads over a fresh mapped epoch; run under TSan in CI.
  published_file();  // publish-on-first-use
  store::OpenedEpoch opened = store::EpochStore(store_root()).open_current();
  ASSERT_NE(opened.tier, nullptr);
  SearchEngine mapped(opened.snapshot, *pub_ctx_, *cloud_key_, pool_);
  auto plain = make_engine(nullptr);

  std::vector<Query> queries = pair_queries();
  queries.push_back(Query{.id = 77, .keywords = {hot(0), hot(1)}});  // full-set subsets
  std::vector<Bytes> expected;
  for (const Query& q : queries) {
    expected.push_back(encode_response(plain->search(q, SchemeKind::kHybrid)));
  }
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<Bytes>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          got[t].push_back(encode_response(
              mapped.search(queries[(i + t) % queries.size()], SchemeKind::kHybrid)));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[t][i], expected[(i + t) % queries.size()]) << "thread " << t;
    }
  }
}

// --- fixed base --------------------------------------------------------------

// A few-byte section that claims 2^40 entries is rejected as a ParseError
// before anything is reserved.
TEST(WitnessTierDecode, HugeCountsAreTypedErrors) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  ByteWriter fixed;
  Bigint(4).write(fixed);
  fixed.varint(12);
  fixed.varint(2'000'000);
  fixed.varint(kHuge);
  fixed.raw(Bytes(4, 0));
  ByteReader fr(fixed.data());
  EXPECT_THROW((void)read_fixed_base(fr), ParseError);

  ByteWriter sub;
  sub.varint(kHuge);
  sub.raw(Bytes(4, 0));
  ByteReader sr(sub.data());
  EXPECT_THROW((void)WitnessSubTable::read(sr), ParseError);
}

TEST_F(WitnessTierTest, FixedBaseSnapshotRoundTrips) {
  ByteWriter w;
  write_fixed_base(w, built_->fixed_base);
  Bytes bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), built_->fixed_base_bytes);
  ByteReader r(bytes);
  FixedBaseSnapshot back = read_fixed_base(r);
  r.expect_done();
  EXPECT_EQ(back.base, built_->fixed_base.base);
  EXPECT_EQ(back.window, built_->fixed_base.window);
  EXPECT_EQ(back.capacity_bits, built_->fixed_base.capacity_bits);
  EXPECT_EQ(back.powers, built_->fixed_base.powers);

  // Adopting the restored table must not change a single proof byte.
  auto adopted_ctx = AccumulatorContext::public_side(owner_ctx_->params());
  adopted_ctx.set_pool(pool_);
  adopted_ctx.adopt_fixed_base(back);
  SearchEngine adopted(*snap_, adopted_ctx, *cloud_key_, pool_);
  auto plain = make_engine(nullptr);
  Query q{.id = 31, .keywords = {hot(2), sel(2)}};
  EXPECT_EQ(encode_response(plain->search(q, SchemeKind::kAccumulator)),
            encode_response(adopted.search(q, SchemeKind::kAccumulator)));
}

}  // namespace
}  // namespace vc
