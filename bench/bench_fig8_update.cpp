// Fig 8 — accumulator update time when adding a batch of new documents,
// vs the initial corpus size, for the Accumulator / Bloom / Hybrid schemes.
//
// Paper: all three roughly constant in the initial size (updates touch only
// the added records); Hybrid > Accumulator and > Bloom because it maintains
// both accumulators and filters.  Expected shape: near-flat lines with
// Hybrid on top.
//
// The serve columns measure update-while-serving: mean and worst query
// latency observed at the serving core while a second batch is applied and
// its new epoch atomically swapped in.
//
//   VC_FIG8_INITIAL="250,500,1000,2000"  VC_FIG8_ADDED=200
//
// A second sweep (BENCH_delta_update.json) measures the log-structured
// store's publish path: update-to-visible seconds for a delta publish
// (O(touched terms)) against a full snapshot republish (O(index)), per
// initial corpus size.  VC_DELTA_INITIAL / VC_DELTA_ADDED set the scale;
// VC_DELTA_REQUIRE_FLAT=K turns it into a gate — the delta visible time at
// the largest corpus must stay within Kx of the smallest.  Each size times
// kDeltaRounds delta publishes and reports (and gates on) their median, so
// one slow fsync cannot decide the gate.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "protocol/cloud.hpp"
#include "store/epoch_store.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  const auto initial_sizes = env_sizes("VC_FIG8_INITIAL", {250, 500, 1000, 2000, 4000});
  const std::uint32_t added_docs =
      static_cast<std::uint32_t>(env_size("VC_FIG8_ADDED", 200));

  std::printf("# Fig 8: time (s) to update accumulators when adding %u documents\n",
              added_docs);
  std::printf("# (per-scheme cost split out of one maintenance pass; Enron profile)\n");
  // Scope note: the paper's Fig 8 Hybrid "needs to update both RSA
  // accumulators and Bloom filters" (§V-D) — interval-tree witness
  // maintenance is owner-side offline work outside that measurement, so it
  // is reported in its own column here.
  // publish_sync_ms: wall time of publish() + wait_published(), an owner
  // that waits for its epoch to serve; publish_async_ms: wall time of
  // publish() alone, which only stages the epoch (the publish worker
  // builds, warms and swaps off the caller); async_settle_ms: staging →
  // swapped.
  TablePrinter table("fig8_update", {"initial_docs", "Accumulator_s", "Bloom_s", "Hybrid_s",
                      "interval_extra_s", "touched_terms", "serve_mean_ms", "serve_max_ms",
                      "publish_sync_ms", "publish_async_ms", "async_settle_ms"});

  for (std::uint32_t initial : initial_sizes) {
    TestbedOptions opts = bench_testbed_options(initial);
    Testbed bed(opts);

    // The added documents are fresh draws over the SAME vocabulary
    // (doc_seed differs, word seed shared), continuing docIDs.
    SynthSpec add_spec = opts.corpus;
    add_spec.num_docs = added_docs;
    add_spec.doc_seed = opts.corpus.seed + 1000;
    Corpus add_corpus = generate_corpus(add_spec);
    std::vector<Document> docs;
    for (const Document& d : add_corpus) {
      docs.push_back(Document{d.id + initial, d.name, d.text});
    }

    // Fig 8 measures accumulator/Bloom maintenance; dictionary rebuild is
    // excluded (the paper's scope) and reported by the dictionary bench.
    UpdateTimings t = bed.vindex().add_documents(docs, bed.owner_ctx(), bed.owner_key(),
                                                 /*rebuild_dictionary=*/false);
    double hybrid_paper_scope =
        t.flat_accumulator_seconds + t.bloom_seconds + t.sign_seconds;

    // Update-while-serving: queries hit the serving core while one more
    // batch is applied and published.  The atomic snapshot swap means the
    // queries never block on the update; the latency they see is plain
    // proving cost.
    CloudService cloud(bed.vindex().snapshot(), bed.public_ctx(), bed.cloud_key(),
                       bed.owner_key().verify_key(), &bed.pool());
    Query q{.id = 1, .keywords = {synth_word(opts.corpus, 16), synth_word(opts.corpus, 24)}};
    SignedQuery sq{q, bed.owner_key().sign(q.encode())};
    (void)cloud.handle(sq);  // warm the proving path before timing
    SynthSpec second_spec = add_spec;
    second_spec.doc_seed = opts.corpus.seed + 2000;
    Corpus second_corpus = generate_corpus(second_spec);
    std::vector<Document> second_docs;
    for (const Document& d : second_corpus) {
      second_docs.push_back(Document{d.id + initial + added_docs, d.name, d.text});
    }
    std::atomic<bool> updating{true};
    double publish_sync_ms = 0;
    std::thread updater([&] {
      bed.vindex().add_documents(second_docs, bed.owner_ctx(), bed.owner_key(),
                                 /*rebuild_dictionary=*/false);
      SnapshotPtr snap = bed.vindex().snapshot();
      Stopwatch psw;
      cloud.publish(snap);
      cloud.wait_published(snap->epoch());
      publish_sync_ms = psw.millis();
      updating.store(false);
    });
    double total_ms = 0, max_ms = 0;
    std::size_t served = 0;
    while (updating.load(std::memory_order_relaxed) || served == 0) {
      Stopwatch sw;
      (void)cloud.handle(sq);
      double ms = sw.millis();
      total_ms += ms;
      if (ms > max_ms) max_ms = ms;
      ++served;
    }
    updater.join();

    // Async column: the same publish without waiting.  The owner-visible
    // cost collapses to the staging call; the settle time is what the
    // publish worker absorbed off the owner's critical path.
    SynthSpec third_spec = add_spec;
    third_spec.doc_seed = opts.corpus.seed + 3000;
    std::vector<Document> third_docs;
    for (const Document& d : generate_corpus(third_spec)) {
      third_docs.push_back(Document{d.id + initial + 2 * added_docs, d.name, d.text});
    }
    bed.vindex().add_documents(third_docs, bed.owner_ctx(), bed.owner_key(),
                               /*rebuild_dictionary=*/false);
    SnapshotPtr async_snap = bed.vindex().snapshot();
    Stopwatch asw;
    cloud.publish(async_snap);
    double publish_async_ms = asw.millis();
    cloud.wait_published(async_snap->epoch());
    double async_settle_ms = asw.millis();

    table.row({std::to_string(initial), fmt(t.accumulator_scheme_seconds(), "%.3f"),
               fmt(t.bloom_scheme_seconds(), "%.3f"), fmt(hybrid_paper_scope, "%.3f"),
               fmt(t.interval_seconds, "%.3f"), std::to_string(t.touched_terms),
               fmt(total_ms / static_cast<double>(served), "%.2f"), fmt(max_ms, "%.2f"),
               fmt(publish_sync_ms, "%.2f"), fmt(publish_async_ms, "%.2f"),
               fmt(async_settle_ms, "%.2f")});
  }

  // Delta-vs-full publish sweep: how long until an owner update is visible
  // to a cold reader of the epoch store.  The delta path encodes only the
  // touched terms and the reader resolves the chain into an overlay; the
  // full path re-encodes the whole snapshot.  The first timed column
  // (update_s) is the accumulator maintenance both paths share.
  {
    namespace fs = std::filesystem;
    const auto delta_sizes = env_sizes("VC_DELTA_INITIAL", {500, 1000, 2000, 4000});
    const auto delta_added =
        static_cast<std::uint32_t>(env_size("VC_DELTA_ADDED", 50));
    const double require_flat =
        static_cast<double>(env_size("VC_DELTA_REQUIRE_FLAT", 0));
    const double require_speedup =
        static_cast<double>(env_size("VC_DELTA_REQUIRE_SPEEDUP", 0));
    constexpr std::uint32_t kDeltaRounds = 3;

    std::printf("\n# Delta vs full publish: update-to-visible seconds, adding %u docs\n",
                delta_added);
    std::printf("# (publish = encode + fsync + CURRENT advance; open = what a cold\n");
    std::printf("#  reader then pays — the full-snapshot CRC sweep dominates it and is\n");
    std::printf("#  identical for both paths, so the gate compares the publish legs;\n");
    std::printf("#  delta columns are medians over %u delta publishes per size)\n",
                kDeltaRounds);
    TablePrinter dt("delta_update",
                    {"initial_docs", "corpus_MB", "touched_terms", "update_s",
                     "delta_publish_s", "delta_open_s", "delta_KB", "full_publish_s",
                     "full_KB", "publish_speedup"});
    std::vector<double> delta_publish, speedups;
    for (std::uint32_t initial : delta_sizes) {
      TestbedOptions opts = bench_testbed_options(initial);
      Testbed bed(opts);
      fs::path root = fs::temp_directory_path() /
                      ("vc_bench_delta_" + std::to_string(::getpid()) + "_" +
                       std::to_string(initial));
      fs::remove_all(root);
      store::EpochStore store(root);
      store.publish(*bed.vindex().snapshot(), 1);
      bed.vindex().note_full_publish();

      // Two fresh batches over the shared vocabulary, continuing docIDs:
      // batch A rides the delta path, batch B the full-republish path, so
      // each path is measured on its own epoch of the same store.
      auto make_batch = [&](std::uint64_t doc_seed_offset, std::uint32_t id_offset) {
        SynthSpec add_spec = opts.corpus;
        add_spec.num_docs = delta_added;
        add_spec.doc_seed = opts.corpus.seed + doc_seed_offset;
        std::vector<Document> docs;
        for (const Document& d : generate_corpus(add_spec)) {
          docs.push_back(Document{d.id + id_offset, d.name, d.text});
        }
        return docs;
      };

      // kDeltaRounds fresh batches ride the delta path; every column is
      // the median over the rounds.
      std::vector<double> touched_runs, update_runs, delta_runs, open_runs, kb_runs;
      for (std::uint32_t round = 0; round < kDeltaRounds; ++round) {
        double update_s = 0;
        UpdateTimings ut;
        {
          ScopedTimer timer(update_s);
          ut = bed.vindex().add_documents(
              make_batch(3000 + 100 * round, initial + round * delta_added),
              bed.owner_ctx(), bed.owner_key(), /*rebuild_dictionary=*/false);
        }
        double delta_s = 0, delta_open_s = 0;
        std::uintmax_t delta_bytes = 0;
        {
          ScopedTimer timer(delta_s);
          auto delta = bed.vindex().publish_delta();
          if (!delta) {
            std::fprintf(stderr, "delta sweep: update produced no delta\n");
            return 1;
          }
          fs::path dir = store.publish_delta(*delta, 1);
          delta_bytes = fs::file_size(dir / store::EpochStore::kDeltaFile);
        }
        {
          ScopedTimer timer(delta_open_s);
          (void)store.open_current();  // a cold reader resolves the chain
        }
        touched_runs.push_back(static_cast<double>(ut.touched_terms));
        update_runs.push_back(update_s);
        delta_runs.push_back(delta_s);
        open_runs.push_back(delta_open_s);
        kb_runs.push_back(static_cast<double>(delta_bytes) / 1024.0);
      }
      const double delta_s = median(delta_runs);
      delta_publish.push_back(delta_s);

      bed.vindex().add_documents(make_batch(4000, initial + kDeltaRounds * delta_added),
                                 bed.owner_ctx(), bed.owner_key(),
                                 /*rebuild_dictionary=*/false);
      double full_s = 0;
      std::uintmax_t full_bytes = 0;
      {
        ScopedTimer timer(full_s);
        fs::path dir = store.publish(*bed.vindex().snapshot(), 1);
        full_bytes = fs::file_size(dir / store::EpochStore::kSnapshotFile);
      }
      bed.vindex().note_full_publish();
      speedups.push_back(full_s / delta_s);

      dt.row({std::to_string(initial), fmt(corpus_mb(bed.corpus()), "%.1f"),
              fmt(median(touched_runs), "%.0f"), fmt(median(update_runs), "%.3f"),
              fmt(delta_s, "%.3f"), fmt(median(open_runs), "%.3f"),
              fmt(median(kb_runs), "%.1f"),
              fmt(full_s, "%.3f"),
              fmt(static_cast<double>(full_bytes) / 1024.0, "%.1f"),
              fmt(full_s / delta_s, "%.1f")});
      fs::remove_all(root);
    }

    // The gate (ctest: delta_update_latency).  Flatness: delta publish time
    // must grow much slower than the corpus — hot Zipf terms' witnesses make
    // it sub-linear rather than perfectly constant, so the bound is a factor
    // over the swept sizes, not strict equality.  Speedup: at the largest
    // corpus the delta path must beat the O(index) full republish by the
    // given factor (this gap widens with corpus size).
    if (require_flat > 0 && delta_publish.size() >= 2) {
      const double lo = *std::min_element(delta_publish.begin(), delta_publish.end());
      const double hi = *std::max_element(delta_publish.begin(), delta_publish.end());
      const double ratio = lo > 0 ? hi / lo : 1.0;
      if (ratio > require_flat) {
        std::fprintf(stderr,
                     "FAIL: delta publish latency is not flat across corpus "
                     "sizes: %.3fs .. %.3fs (%.1fx > required %.1fx)\n",
                     lo, hi, ratio, require_flat);
        return 1;
      }
      std::printf("delta publish flatness: %.1fx across sizes (<= %.1fx required)\n",
                  ratio, require_flat);
    }
    if (require_speedup > 0 && !speedups.empty()) {
      if (speedups.back() < require_speedup) {
        std::fprintf(stderr,
                     "FAIL: delta publish speedup %.1fx at the largest corpus is below "
                     "the required %.1fx\n",
                     speedups.back(), require_speedup);
        return 1;
      }
      std::printf("delta publish speedup at largest corpus: %.1fx (>= %.1fx required)\n",
                  speedups.back(), require_speedup);
    }
  }
  return 0;
}
