// vcsearch-serve — cloud-side CLI: open the verifiable index the owner
// published into the epoch store and serve signed search responses over
// HTTP until interrupted.
//
//   vcsearch-serve --dir DIR [--store DIR] [--port P]
//                  [--scheme hybrid|accumulator|bloom|interval]
//                  [--max-inflight M] [--compact-chain N] [--warm-budget-mb MB]
//                  [--slow-ms MS] [--trace-capacity N] [--profile]
//
// The server boots from the store's CURRENT epoch (--store, default
// DIR/store): mmap-backed and lazily materialized, with no full-index
// signature sweep — per-term signatures in the mapped epoch still guard
// soundness, and the receipt check (Fig 1's acknowledge step) is
// `vcsearch-inspect --dir DIR --validate`.  An empty store exits 2: run
// vcsearch-build first.  --dir holds the signing keys.
//
// --warm-budget-mb (default 16; 0 disables) sizes the serving core's
// witness warm stage: the boot epoch's tiered terms are pre-materialized
// off the mapping before the server starts listening, and every later
// epoch the same way before it is swapped in, so the first query on an
// epoch never pays the cold lazy-materialization path.
//
// Requests are dispatched onto the worker pool (up to --max-inflight
// concurrently; excess gets 503).  SIGINT/SIGTERM drain in-flight requests
// before exiting.
//
// Every /search is traced (GET /traces lists the sampled span trees;
// /traces/<id>/chrome exports Chrome trace_event JSON for Perfetto).
// Queries slower than --slow-ms (default 250) are always
// kept and logged as one structured JSON line on stderr.  --profile dumps
// the registry snapshot plus the top-10 slowest sampled traces on clean
// shutdown.
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "cli_args.hpp"
#include "crypto/standard_params.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "protocol/http.hpp"
#include "store/epoch_store.hpp"
#include "support/threadpool.hpp"

using namespace vc;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir", nullptr);
  if (dir == nullptr) {
    std::fprintf(stderr,
                 "usage: vcsearch-serve --dir DIR [--store DIR] [--port P] [--scheme S]\n");
    return 2;
  }
  std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(arg_value(argc, argv, "--port", "8080"), nullptr, 10));
  SchemeKind scheme = scheme_arg(argc, argv);
  std::size_t max_inflight =
      std::strtoul(arg_value(argc, argv, "--max-inflight", "32"), nullptr, 10);
  if (max_inflight == 0) max_inflight = 1;
  const bool profile = has_flag(argc, argv, "--profile");
  const std::uint64_t warm_budget_bytes =
      std::strtoull(arg_value(argc, argv, "--warm-budget-mb", "16"), nullptr, 10) * 1024 *
      1024;

  // Trace collection: --slow-ms / --trace-capacity override the collector's
  // defaults (250 ms / 128).
  auto& collector = obs::TraceCollector::global();
  if (const char* v = arg_value(argc, argv, "--slow-ms", nullptr); v != nullptr) {
    collector.set_slow_threshold_ns(std::strtoull(v, nullptr, 10) * 1'000'000ull);
  }
  if (const char* v = arg_value(argc, argv, "--trace-capacity", nullptr); v != nullptr) {
    std::size_t cap = std::strtoul(v, nullptr, 10);
    if (cap > 0) collector.configure(cap, collector.slow_threshold_ns(), cap / 2 + 1);
  }
  collector.set_slow_log(true);

  std::filesystem::path base(dir);
  const std::filesystem::path store_dir =
      arg_value(argc, argv, "--store", (base / "store").c_str());
  if (!std::filesystem::exists(store_dir / store::EpochStore::kCurrentFile)) {
    std::fprintf(stderr, "store %s has no published epoch; run vcsearch-build first\n",
                 store_dir.c_str());
    return 2;
  }
  SigningKey cloud_key = SigningKey::load((base / "cloud.key").string());
  SigningKey owner_key = SigningKey::load((base / "owner.key").string());

  store::EpochStore store(store_dir);
  // A corrupt tier section degrades to untiered serving (the tier is a
  // cache over the base sections); base-section corruption still fails.
  store::OpenedEpoch opened;
  try {
    opened = store.open_current();
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "vcsearch-serve: %s\n", e.what());
    return 1;
  }
  SnapshotPtr snapshot = opened.snapshot;
  std::printf("store: restored epoch %llu from %s (%zu terms, %.2f MB mapped)\n",
              static_cast<unsigned long long>(snapshot->epoch()), store_dir.c_str(),
              snapshot->term_count(),
              static_cast<double>(opened.file->size()) / (1024 * 1024));
  if (opened.chain_length > 0) {
    std::printf("store: resolved delta chain (%u deltas on base epoch %llu)\n",
                opened.chain_length, static_cast<unsigned long long>(opened.base_epoch));
  }
  if (opened.tier != nullptr) {
    std::printf("store: restored witness tier (%zu terms, %.2f MB tables, "
                "no witness recompute)\n",
                opened.tier->term_count(),
                static_cast<double>(opened.tier->table_bytes()) / (1024 * 1024));
  } else if (opened.tier_degraded) {
    std::printf("store: witness tier sections corrupt — serving untiered "
                "(compute path)\n");
  }

  auto cloud_ctx = AccumulatorContext::public_side(AccumulatorParams{
      standard_accumulator_modulus(snapshot->config().modulus_bits).n,
      standard_qr_generator(snapshot->config().modulus_bits)});
  // The persisted table has the flat schemes' width.  Adopting it skips
  // the rebuild squarings a flat-scheme server would otherwise pay on
  // every cold start; the interval schemes raise g to one interval's
  // product at most, so they leave it and size their own narrower table.
  if (!uses_interval_witnesses(scheme) && opened.fixed_base &&
      opened.fixed_base->base == cloud_ctx.g()) {
    cloud_ctx.adopt_fixed_base(*opened.fixed_base);
    std::printf("store: adopted persisted fixed-base table (%zu-bit capacity)\n",
                opened.fixed_base->capacity_bits);
  }
  ThreadPool pool;
  CloudService cloud(snapshot, cloud_ctx, cloud_key, owner_key.verify_key(), &pool,
                     scheme, warm_budget_bytes);
  HttpFrontend frontend(cloud, port, &pool, max_inflight);
  frontend.start();

  // Background compaction: fold long delta chains back into full snapshots
  // off the serving path.  The worker only ever writes a side file; this
  // process keeps serving its current overlay and the *next* open (restart
  // or publish_from) picks up the compacted snapshot.
  std::optional<store::CompactionWorker> compactor;
  std::uint32_t compact_chain = static_cast<std::uint32_t>(
      std::strtoul(arg_value(argc, argv, "--compact-chain", "4"), nullptr, 10));
  if (compact_chain > 0) {
    compactor.emplace(store, store::CompactionWorker::Options{.max_chain_length = compact_chain});
    compactor->start();
    std::printf("store: background compaction at chain length %u\n", compact_chain);
  }
  std::printf("serving %s scheme on http://127.0.0.1:%u "
              "(POST /search, GET /stats, GET /metrics, GET /traces) "
              "epoch=%llu max-inflight=%zu warm-budget-mb=%llu slow-ms=%llu\n",
              scheme_name(scheme), frontend.port(),
              static_cast<unsigned long long>(snapshot->epoch()), max_inflight,
              static_cast<unsigned long long>(warm_budget_bytes / (1024 * 1024)),
              static_cast<unsigned long long>(collector.slow_threshold_ns() / 1'000'000ull));

  std::fflush(stdout);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down after %llu queries\n",
              static_cast<unsigned long long>(cloud.queries_served()));
  if (compactor) compactor->stop();
  frontend.stop();  // graceful drain: in-flight searches finish first
  if (profile) {
    std::printf("\n--- profile (registry snapshot) ---\n%s",
                obs::render_profile(obs::MetricsRegistry::global()).c_str());
    std::printf("\n--- top 10 slowest sampled traces ---\n%s",
                obs::render_slowest_table(collector, 10).c_str());
    std::fflush(stdout);
  }
  return 0;
}
