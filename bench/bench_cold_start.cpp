// Cold-start benchmark: restarting the cloud lazily from the persistent
// epoch store versus eagerly reopening a builder over the same epoch.
//
// The builder path (IndexBuilder::from_snapshot over the opened epoch, then
// snapshot()) materializes every term entry and interval tree and rebuilds
// the inverted index; the store path (EpochStore::open_current alone)
// validates checksums, parses the small sections and maps the rest,
// materializing per-term state only when a query touches it.  The table
// reports both restart latencies, the store/builder speedup, and the
// first-proof latency on each path (the store path pays its lazy parse
// there — the interesting question is how little of the O(index) work one
// query actually needs).
//
//   docs  data_mb  terms  builder_s  store_open_s  speedup  builder_proof1_s  store_proof1_s
//
// Knobs: VC_DOCS, VC_RUNS and the usual parameter envs (bench_common.hpp).
#include <filesystem>

#include "bench_common.hpp"
#include "store/epoch_store.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  std::vector<std::uint32_t> sizes = env_sizes("VC_DOCS", {100, 200, 400});
  std::size_t runs = env_size("VC_RUNS", 3);

  TablePrinter table("cold_start",
                     {"docs", "data_mb", "terms", "builder_s", "store_open_s", "speedup",
                      "builder_proof1_s", "store_proof1_s"});

  namespace fs = std::filesystem;
  fs::path work = fs::temp_directory_path() / "vc_bench_cold_start";

  for (std::uint32_t docs : sizes) {
    Testbed bed(bench_testbed_options(docs));
    fs::remove_all(work);
    fs::create_directories(work);
    store::EpochStore store(work / "store");
    store.publish(*bed.vindex().snapshot(), 1);

    Query first_query = known_multi_queries(bed.workload())[0];

    std::vector<double> builder_s, store_s, builder_proof_s, store_proof_s;
    for (std::size_t r = 0; r < runs; ++r) {
      {
        Stopwatch sw;
        IndexBuilder loaded = IndexBuilder::from_snapshot(store.open_current().snapshot);
        SnapshotPtr snap = loaded.snapshot();
        builder_s.push_back(sw.seconds());
        SearchEngine engine(snap, bed.public_ctx(), bed.cloud_key(), &bed.pool());
        Stopwatch proof_sw;
        (void)engine.search(first_query, SchemeKind::kHybrid);
        builder_proof_s.push_back(proof_sw.seconds());
      }
      {
        Stopwatch sw;
        store::OpenedEpoch opened = store.open_current();
        store_s.push_back(sw.seconds());
        SearchEngine engine(opened.snapshot, bed.public_ctx(), bed.cloud_key(),
                            &bed.pool());
        Stopwatch proof_sw;
        (void)engine.search(first_query, SchemeKind::kHybrid);
        store_proof_s.push_back(proof_sw.seconds());
      }
    }

    double b = mean(builder_s), s = mean(store_s);
    table.row({std::to_string(docs), fmt(corpus_mb(bed.corpus()), "%.2f"),
               std::to_string(bed.vindex().term_count()), fmt(b), fmt(s, "%.6f"),
               fmt(s > 0 ? b / s : 0, "%.1f"), fmt(mean(builder_proof_s)),
               fmt(mean(store_proof_s))});
  }
  fs::remove_all(work);
  return 0;
}
