// Concurrency: the cloud engine and the verifier must be safe under
// parallel queries (the paper's Fig 4 service runs its managers on separate
// cores; the shared state is the prime-representative caches).
#include <gtest/gtest.h>

#include <atomic>

#include "crypto/standard_params.hpp"
#include "index/inverted_index.hpp"
#include "obs/export.hpp"
#include "protocol/cloud.hpp"
#include "obs/metrics.hpp"
#include "search/engine.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

TEST(Concurrency, ParallelQueriesAllVerify) {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "conc"};
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1201);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool build_pool(2);

  SynthSpec spec{.name = "conc", .num_docs = 40, .min_doc_words = 20,
                 .max_doc_words = 45, .vocab_size = 180, .zipf_s = 0.9, .seed = 91};
  Corpus corpus = generate_corpus(spec);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                                owner_key, cfg, build_pool);
  // Engine WITHOUT an internal pool: the outer threads are the parallelism.
  SearchEngine engine(vidx.snapshot(), pub_ctx, cloud_key, nullptr);
  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 6;
  ThreadPool pool(kThreads);
  std::atomic<int> verified{0};
  std::vector<std::future<void>> futs;
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(pool.submit([&, t] {
      DeterministicRng qrng(2000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Query q{.id = static_cast<std::uint64_t>(t * 100 + i),
                .keywords = {synth_word(spec, static_cast<std::uint32_t>(qrng.below(12))),
                             synth_word(spec, static_cast<std::uint32_t>(
                                                  12 + qrng.below(30)))}};
        SchemeKind scheme = static_cast<SchemeKind>(qrng.below(4));
        SearchResponse resp = engine.search(q, scheme);
        verifier.verify(resp);  // throws on any inconsistency
        verified.fetch_add(1);
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(verified.load(), kThreads * kQueriesPerThread);
}

// The pooled prover must emit the exact bytes the single-threaded prover
// emits — the pool only reorders *when* independent witnesses are computed,
// never what they are.  payload_bytes() covers the result and every proof
// byte the cloud signs.
TEST(Concurrency, PooledProverByteIdenticalToSingleThreaded) {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "conc"};
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1301);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool pool(4);

  SynthSpec spec{.name = "conc2", .num_docs = 50, .min_doc_words = 20,
                 .max_doc_words = 45, .vocab_size = 160, .zipf_s = 0.9, .seed = 77};
  Corpus corpus = generate_corpus(spec);
  // A pooled build must also produce the same index a serial build does.
  ThreadPool serial_pool(1);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                                owner_key, cfg, serial_pool);
  IndexBuilder vidx_pooled = IndexBuilder::build(InvertedIndex::build(corpus),
                                                       owner_ctx, owner_key, cfg, pool);
  ASSERT_EQ(vidx.find("the") != nullptr, vidx_pooled.find("the") != nullptr);

  SearchEngine serial(vidx.snapshot(), pub_ctx, cloud_key, nullptr);
  SearchEngine pooled(vidx_pooled.snapshot(), pub_ctx, cloud_key, &pool);
  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);

  DeterministicRng qrng(42);
  for (int scheme = 0; scheme < 4; ++scheme) {
    Query q{.id = static_cast<std::uint64_t>(scheme),
            .keywords = {synth_word(spec, static_cast<std::uint32_t>(qrng.below(10))),
                         synth_word(spec, static_cast<std::uint32_t>(10 + qrng.below(40)))}};
    SearchResponse a = serial.search(q, static_cast<SchemeKind>(scheme));
    SearchResponse b = pooled.search(q, static_cast<SchemeKind>(scheme));
    EXPECT_EQ(a.payload_bytes(), b.payload_bytes()) << "scheme " << scheme;
    verifier.verify(a);
    verifier.verify(b);
  }
}

// The telemetry registry is hammered from every pool worker while scrape
// endpoints snapshot and render it; registration, updates, spans and both
// renderers must race cleanly (this is the TSan target for the obs layer).
TEST(Concurrency, MetricsRegistrySharedAcrossThreads) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futs;
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(pool.submit([&, t] {
      // Every thread registers the same shared series plus one of its own —
      // find-or-create races against both lookups and first registrations.
      obs::Counter& shared = reg.counter("conc_shared_total");
      obs::Counter& mine = reg.counter("conc_thread_total",
                                       "t=\"" + std::to_string(t) + "\"");
      obs::Histogram& hist = reg.stage("conc_stage");
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared.inc();
        mine.inc();
        obs::Span span(hist);
        if (i % 256 == 0) {
          // Concurrent scrapes while updates are in flight.
          (void)obs::render_prometheus(reg);
          (void)obs::render_json(reg);
        }
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(reg.counter("conc_shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("conc_thread_total", "t=\"" + std::to_string(t) + "\"").value(),
              static_cast<std::uint64_t>(kOpsPerThread));
  }
  EXPECT_EQ(reg.stage("conc_stage").snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

// Queries hammer the serving core while the owner keeps publishing new
// epochs.  Every response must verify, and the epochs a thread observes
// must never go backwards — the epoch-pointer swap may race reads,
// but serving always pins one complete epoch (this is the TSan target for
// the snapshot-swap machinery).
TEST(Concurrency, QueriesVerifyWhileEpochsSwap) {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "swap"};
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1401);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool build_pool(2);

  SynthSpec spec{.name = "swap", .num_docs = 40, .min_doc_words = 20,
                 .max_doc_words = 45, .vocab_size = 160, .zipf_s = 0.9, .seed = 55};
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(generate_corpus(spec)),
                                          owner_ctx, owner_key, cfg, build_pool);
  CloudService cloud(vidx.snapshot(), pub_ctx, cloud_key, owner_key.verify_key());
  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);

  std::string w0 = synth_word(spec, 3), w1 = synth_word(spec, 7);
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  constexpr int kUpdates = 3;

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futs;
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(pool.submit([&, t] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Query q{.id = static_cast<std::uint64_t>(t * 100 + i), .keywords = {w0, w1}};
        SignedQuery sq{q, owner_key.sign(q.encode())};
        SearchResponse resp = cloud.handle(sq);
        verifier.verify(resp);
        EXPECT_GE(resp.epoch, last_epoch);
        last_epoch = resp.epoch;
      }
    }));
  }
  // The owner applies updates and publishes new epochs while the queries
  // above are in flight.
  std::uint32_t next_doc = spec.num_docs;
  for (int u = 0; u < kUpdates; ++u) {
    std::vector<Document> docs = {Document{
        next_doc, "upd-" + std::to_string(next_doc), w0 + " " + w1 + " swapterm"}};
    ++next_doc;
    vidx.add_documents(docs, owner_ctx, owner_key);
    cloud.publish(vidx.snapshot());
  }
  for (auto& f : futs) f.get();
  cloud.wait_published(1u + kUpdates);
  EXPECT_EQ(cloud.epoch(), 1u + kUpdates);

  // After the last publish, a pinned verifier accepts current responses and
  // would reject a replay from any earlier epoch.
  verifier.pin_epoch(cloud.epoch());
  Query q{.id = 9999, .keywords = {w0, w1}};
  SignedQuery sq{q, owner_key.sign(q.encode())};
  SearchResponse resp = cloud.handle(sq);
  ASSERT_NO_THROW(verifier.verify(resp));
  resp.epoch -= 1;  // simulate serving from the previous epoch
  EXPECT_THROW(verifier.verify(resp), VerifyError);
}

// A snapshot reached by incremental updates serves the same verified
// answers as a fresh full build over the same documents: identical result
// sets and identical flat accumulator values (the accumulator of a set is
// independent of the insertion path).  Interval partitions and epochs may
// legitimately differ, so the comparison is on the semantic content, not
// the raw payload bytes.
TEST(Concurrency, PostUpdateSnapshotEquivalentToFreshBuild) {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "eqv"};
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1501);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool pool(2);

  SynthSpec spec{.name = "eqv", .num_docs = 30, .min_doc_words = 20,
                 .max_doc_words = 40, .vocab_size = 140, .zipf_s = 0.9, .seed = 66};
  Corpus base = generate_corpus(spec);
  std::string w0 = synth_word(spec, 2), w1 = synth_word(spec, 6);
  std::vector<Document> extra;
  for (std::uint32_t i = 0; i < 4; ++i) {
    extra.push_back(Document{spec.num_docs + i, "x-" + std::to_string(i),
                             w0 + " " + w1 + " extraterm" + std::to_string(i)});
  }

  IndexBuilder updated = IndexBuilder::build(InvertedIndex::build(base), owner_ctx,
                                             owner_key, cfg, pool);
  updated.add_documents(extra, owner_ctx, owner_key);

  Corpus full = base;
  for (const Document& d : extra) full.add(d.name, d.text);
  IndexBuilder fresh = IndexBuilder::build(InvertedIndex::build(full), owner_ctx,
                                           owner_key, cfg, pool);

  SnapshotPtr upd_snap = updated.snapshot();
  SnapshotPtr fresh_snap = fresh.snapshot();
  EXPECT_EQ(upd_snap->epoch(), 2u);
  EXPECT_EQ(fresh_snap->epoch(), 1u);
  ASSERT_EQ(upd_snap->term_count(), fresh_snap->term_count());

  // The flat accumulators agree term by term — same element set, same value
  // regardless of whether the elements arrived at build or by Eq 5 updates.
  for (const auto& [term, entry] : fresh_snap->entries()) {
    const IndexEntry* u = upd_snap->find(term);
    ASSERT_NE(u, nullptr) << term;
    EXPECT_EQ(u->attestation.stmt.tuple_acc, entry->attestation.stmt.tuple_acc) << term;
    EXPECT_EQ(u->attestation.stmt.doc_acc, entry->attestation.stmt.doc_acc) << term;
    EXPECT_EQ(u->attestation.stmt.posting_count, entry->attestation.stmt.posting_count);
    EXPECT_EQ(u->attestation.stmt.postings_digest, entry->attestation.stmt.postings_digest);
  }

  SearchEngine upd_engine(upd_snap, pub_ctx, cloud_key, &pool);
  SearchEngine fresh_engine(fresh_snap, pub_ctx, cloud_key, &pool);
  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);

  for (int scheme = 0; scheme < 4; ++scheme) {
    Query q{.id = static_cast<std::uint64_t>(scheme), .keywords = {w0, w1}};
    SearchResponse a = upd_engine.search(q, static_cast<SchemeKind>(scheme));
    SearchResponse b = fresh_engine.search(q, static_cast<SchemeKind>(scheme));
    ASSERT_NO_THROW(verifier.verify(a)) << "scheme " << scheme;
    ASSERT_NO_THROW(verifier.verify(b)) << "scheme " << scheme;
    const auto& ma = std::get<MultiKeywordResponse>(a.body);
    const auto& mb = std::get<MultiKeywordResponse>(b.body);
    EXPECT_EQ(ma.result.docs, mb.result.docs) << "scheme " << scheme;
    EXPECT_EQ(ma.result.postings, mb.result.postings) << "scheme " << scheme;
  }
}

}  // namespace
}  // namespace vc
