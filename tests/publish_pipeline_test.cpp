// Asynchronous epoch publication: one publish worker behind a depth-1
// newest-wins staging slot.  Superseded epochs are dropped (every staged
// publish is either swapped in or counted as dropped) while the served
// epoch never goes backwards, the warm stage keeps every cold-path counter
// flat for the warmed hot set, and the whole machinery survives a TSan
// hammer of concurrent publishes, store reopens, verifying queries and
// background compaction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "protocol/cloud.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter_value(const char* name, const std::string& labels = "") {
  return obs::MetricsRegistry::global().counter(name, labels).value();
}

TEST(PublishPipeline, NewestWinsDropsSupersededEpochs) {
  SynthSpec spec{.name = "nwin", .num_docs = 30, .min_doc_words = 20,
                 .max_doc_words = 40, .vocab_size = 140, .zipf_s = 0.9, .seed = 21};
  testbed::TestBed bed(spec, testbed::small_config(256, "nwin"), /*key_seed=*/702,
                       /*threads=*/2);
  CloudService cloud(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key,
                     bed.owner_key.verify_key());

  std::vector<std::string> words = bed.frequent_terms(2);
  // Build the epochs up front, then stage them back to back: the worker
  // either swaps each one in or finds it superseded in the slot.
  constexpr std::uint32_t kEpochs = 5;
  std::vector<SnapshotPtr> epochs;
  for (std::uint32_t u = 0; u < kEpochs; ++u) {
    bed.vidx.add_documents(
        {Document{spec.num_docs + u, "nw-" + std::to_string(u),
                  words[0] + " " + words[1]}},
        bed.owner_ctx, bed.owner_key);
    epochs.push_back(bed.vidx.snapshot());
  }
  const std::uint64_t dropped0 = counter_value("vc_publish_dropped_total");
  const std::uint64_t staged0 = counter_value("vc_async_publishes_total");
  const std::uint64_t swaps0 = counter_value("vc_snapshot_swaps_total");

  // A reader polls the served epoch the whole time; it must never decrease.
  std::atomic<bool> done{false};
  std::atomic<bool> went_back{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      std::uint64_t e = cloud.epoch();
      if (e < last) went_back.store(true);
      last = e;
    }
  });
  for (const SnapshotPtr& snap : epochs) cloud.publish(snap);
  cloud.wait_published(epochs.back()->epoch());
  done.store(true);
  reader.join();

  EXPECT_FALSE(went_back.load()) << "the served epoch must never decrease";
  EXPECT_EQ(cloud.epoch(), epochs.back()->epoch());
  const std::uint64_t staged = counter_value("vc_async_publishes_total") - staged0;
  const std::uint64_t swaps = counter_value("vc_snapshot_swaps_total") - swaps0;
  const std::uint64_t dropped = counter_value("vc_publish_dropped_total") - dropped0;
  EXPECT_EQ(staged, kEpochs);
  EXPECT_GE(swaps, 1u);
  EXPECT_EQ(staged, swaps + dropped)
      << "every staged epoch is either swapped in or dropped as superseded";

  // An epoch older than the one served is dropped at once, never swapped.
  cloud.publish(epochs.front());
  cloud.wait_published(epochs.back()->epoch());
  EXPECT_EQ(cloud.epoch(), epochs.back()->epoch());
  EXPECT_EQ(counter_value("vc_publish_dropped_total") - dropped0, dropped + 1);

  ResultVerifier verifier = bed.owner_verifier();
  verifier.pin_epoch(cloud.epoch());
  Query q{.id = 99, .keywords = words};
  SignedQuery sq{q, bed.owner_key.sign(q.encode())};
  SearchResponse resp = cloud.handle(sq);
  ASSERT_NO_THROW(verifier.verify(resp));
}

// The warm stage must leave nothing for the first post-swap queries to
// materialize: entry decode, tier table decode and tier misses all stay
// flat for the warmed hot set, and the tier lookups are counted as warm
// hits.  This is the "zero cold-path materializations" acceptance gate.
TEST(PublishPipeline, WarmStageAvoidsColdPathForHotTerms) {
  constexpr std::size_t kDocs = 64;
  constexpr std::size_t kHot = 4;
  constexpr std::size_t kSel = 4;
  auto hot = [](std::size_t i) { return std::string("hotz") + char('a' + i); };
  auto sel = [](std::size_t i) { return std::string("selz") + char('a' + i); };
  // Same shape as the witness-tier suite's corpus: hot terms everywhere,
  // selector terms one per interval stride, so tiered aggregation is
  // profitable and every pair query is served from the tier.
  Corpus corpus("warm");
  for (std::size_t d = 0; d < kDocs; ++d) {
    std::string text;
    for (std::size_t i = 0; i < kHot; ++i) text += hot(i) + " ";
    if (d % (kDocs / kSel) == 0) {
      for (std::size_t i = 0; i < kHot; ++i) text += sel(i) + " ";
    }
    text += "fillerz" + std::string(1 + d / 26, static_cast<char>('a' + d % 26));
    corpus.add("d" + std::to_string(d), std::move(text));
  }
  VerifiableIndexConfig cfg = testbed::small_config(256, "vc.warm.bloom");
  auto owner_ctx = AccumulatorContext::owner(
      standard_accumulator_modulus(cfg.modulus_bits),
      standard_qr_generator(cfg.modulus_bits));
  DeterministicRng rng(41, "vc.warm.keys");
  SigningKey owner_key = generate_signing_key(rng, cfg.modulus_bits);
  SigningKey cloud_key = generate_signing_key(rng, cfg.modulus_bits);
  ThreadPool pool(2);
  owner_ctx.set_pool(&pool);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                          owner_key, cfg, pool);
  SnapshotPtr snap = vidx.snapshot();

  TierPolicy policy;
  for (std::size_t i = 0; i < kHot; ++i) {
    policy.hot_terms.push_back(normalize_term(hot(i)));
    policy.hot_terms.push_back(normalize_term(sel(i)));
  }
  TierBuildResult built = build_witness_tier(*snap, owner_ctx, policy);
  ASSERT_NE(built.tier, nullptr);

  fs::path root = fs::path(::testing::TempDir()) /
                  ("vc_warm_pipeline." + std::to_string(::getpid()));
  fs::remove_all(root);
  store::EpochStore store(root);
  store::TierArtifacts artifacts{built.tier, built.fixed_base};
  store.publish(*snap, /*shard_count=*/1, &artifacts);

  // Serve the in-memory snapshot first, then republish the same epoch from
  // the store: publish_from opens it lazily, so every entry and tier table
  // starts cold — exactly the state the publish worker's warm stage is for.
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  pub_ctx.set_pool(&pool);
  CloudService cloud(snap, pub_ctx, cloud_key, owner_key.verify_key(), /*pool=*/nullptr,
                     SchemeKind::kHybrid, /*warm_budget_bytes=*/1ull << 30);

  std::uint64_t warm_terms0 = counter_value("vc_warm_terms_total");
  std::uint64_t warm_bytes0 = counter_value("vc_warm_bytes_total");
  cloud.wait_published(cloud.publish_from(store));
  EXPECT_EQ(counter_value("vc_warm_terms_total") - warm_terms0,
            static_cast<std::uint64_t>(built.tier->term_count()))
      << "the warm stage must warm the whole hot set under a big budget";
  EXPECT_GT(counter_value("vc_warm_bytes_total"), warm_bytes0);

  std::uint64_t entries0 = counter_value("vc_store_entries_materialized_total");
  std::uint64_t tiermat0 = counter_value("vc_witness_tier_materializations_total");
  std::uint64_t misses0 = counter_value("vc_witness_tier_misses");
  std::uint64_t warmhits0 = counter_value("vc_warm_hits_total");

  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(),
                          cfg);
  for (std::size_t i = 0; i < kHot; ++i) {
    Query q{.id = i + 1, .keywords = {hot(i), sel(i)}};
    SignedQuery sq{q, owner_key.sign(q.encode())};
    SearchResponse resp = cloud.handle(sq);
    ASSERT_NO_THROW(verifier.verify(resp)) << "pair " << i;
  }
  EXPECT_EQ(counter_value("vc_store_entries_materialized_total"), entries0)
      << "warmed entries must not decode again on the query path";
  EXPECT_EQ(counter_value("vc_witness_tier_materializations_total"), tiermat0)
      << "warmed tier tables must not decode again on the query path";
  EXPECT_EQ(counter_value("vc_witness_tier_misses"), misses0)
      << "no warmed term may fall back to the compute path";
  EXPECT_GT(counter_value("vc_warm_hits_total"), warmhits0);
  fs::remove_all(root);
}

// TSan target: the owner's publishes race a second thread reopening the
// store through publish_from (whose persisted fixed-base table the worker
// adopts), verifying queries pinning monotonically increasing epochs,
// delta publication into the store and a background compaction worker.
TEST(PublishPipeline, PublishHammerWithQueriesAndCompaction) {
  SynthSpec spec{.name = "ham", .num_docs = 30, .min_doc_words = 20,
                 .max_doc_words = 40, .vocab_size = 140, .zipf_s = 0.9, .seed = 33};
  testbed::TestBed bed(spec, testbed::small_config(256, "ham"), /*key_seed=*/703,
                       /*threads=*/2);
  fs::path root = fs::path(::testing::TempDir()) /
                  ("vc_publish_hammer." + std::to_string(::getpid()));
  fs::remove_all(root);
  store::EpochStore store(root);
  // A tiered base epoch, so every reopen carries a fixed-base table.
  TierPolicy policy;
  policy.top_k = 4;
  TierBuildResult tier = build_witness_tier(*bed.vidx.snapshot(), bed.owner_ctx, policy);
  ASSERT_NE(tier.tier, nullptr);
  store::TierArtifacts artifacts{tier.tier, tier.fixed_base};
  store.publish(*bed.vidx.snapshot(), /*shard_count=*/1, &artifacts);
  bed.vidx.note_full_publish();  // deltas chain to this base from here on

  CloudService cloud(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key,
                     bed.owner_key.verify_key());
  store::CompactionWorker compactor(
      store, store::CompactionWorker::Options{.max_chain_length = 2,
                                              .poll_interval_ms = 5});
  compactor.start();

  std::vector<std::string> words = bed.frequent_terms(2);
  ResultVerifier verifier = bed.owner_verifier();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  constexpr std::uint32_t kUpdates = 4;

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futs;
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(pool.submit([&, t] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Query q{.id = static_cast<std::uint64_t>(t * 100 + i), .keywords = words};
        SignedQuery sq{q, bed.owner_key.sign(q.encode())};
        SearchResponse resp = cloud.handle(sq);
        verifier.verify(resp);
        EXPECT_GE(resp.epoch, last_epoch);
        last_epoch = resp.epoch;
      }
    }));
  }
  // A second publisher keeps reopening the store's CURRENT epoch while the
  // owner publishes: its stale reopens must be dropped, its fresh ones
  // swapped in with the adopted fixed-base table.
  std::atomic<bool> owner_done{false};
  std::thread reopener([&] {
    while (!owner_done.load()) {
      (void)cloud.publish_from(store);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // The owner keeps shipping epochs: every update goes to the store as a
  // delta (feeding the compactor) and to the serving core.
  for (std::uint32_t u = 0; u < kUpdates; ++u) {
    bed.vidx.add_documents(
        {Document{spec.num_docs + u, "ham-" + std::to_string(u),
                  words[0] + " " + words[1] + " hammerterm"}},
        bed.owner_ctx, bed.owner_key);
    auto delta = bed.vidx.publish_delta();
    if (!delta) {
      ADD_FAILURE() << "update " << u << " produced no delta";
      break;
    }
    store.publish_delta(*delta, /*shard_count=*/1);
    cloud.publish(bed.vidx.snapshot());
  }
  owner_done.store(true);
  reopener.join();
  for (auto& f : futs) f.get();
  cloud.wait_published(1 + kUpdates);
  EXPECT_EQ(cloud.epoch(), 1u + kUpdates);
  compactor.stop();

  // Settled state serves and verifies at the final epoch; a replay from an
  // earlier epoch is rejected.
  verifier.pin_epoch(cloud.epoch());
  Query q{.id = 9999, .keywords = words};
  SignedQuery sq{q, bed.owner_key.sign(q.encode())};
  SearchResponse resp = cloud.handle(sq);
  ASSERT_NO_THROW(verifier.verify(resp));
  resp.epoch -= 1;
  EXPECT_THROW(verifier.verify(resp), VerifyError);
  fs::remove_all(root);
}

}  // namespace
}  // namespace vc
