// vcsearch-build — owner-side CLI: index a directory of text files (or a
// synthetic corpus), build + sign the verifiable index, and publish it into
// the persistent epoch store the other tools consume.
//
//   vcsearch-build --out DIR [--docs DIR | --synth N] [--seed S]
//                  [--modulus-bits 1024] [--rep-bits 128] [--interval 100]
//                  [--store DIR]  the epoch store to publish into
//                                 (default DIR/store, where vcsearch-serve,
//                                 -inspect and -query look for it)
//                  [--update-synth N]  incremental mode: reopen the builder
//                                 from the store's CURRENT epoch, append N
//                                 fresh synthetic documents drawn over the
//                                 --synth base corpus's vocabulary (its seed
//                                 and size are read from params.txt), and
//                                 publish the mutation as a delta record
//                                 chained to it (O(touched terms), not
//                                 O(index))
//                  [--compact-store]  fold the store's delta chain into a
//                                 full snapshot and exit (what
//                                 vcsearch-serve's background worker does
//                                 on its own)
//                  [--tier-budget-mb MB]  materialize witness tiers for the
//                                 hottest terms, greedily packed under MB
//                                 megabytes, and persist them in the epoch
//                  [--hot-terms FILE]  explicit hot-term list (one term per
//                                 line) instead of the by-frequency ranking
//                  [--profile]   print the telemetry stage table after the build
//
// Writes into --out:
//   owner.key    owner signing key (plaintext; prototype)
//   cloud.key    cloud signing key (handed to the cloud operator)
//   params.txt   human-readable parameter summary (plus, for --synth, the
//                synth_seed and synth_docs that --update-synth draws over)
//   store/       the epoch store holding the signed verifiable index (epoch 1,
//                incl. prime caches), unless --store points elsewhere
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "cli_args.hpp"
#include "crypto/standard_params.hpp"
#include "obs/export.hpp"
#include "store/epoch_store.hpp"
#include "support/stopwatch.hpp"
#include "support/threadpool.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"
#include "vindex/index_builder.hpp"
#include "vindex/witness_tier.hpp"

using namespace vc;

namespace {

// The `key=value` lines of params.txt.
std::map<std::string, std::string> read_params(const std::filesystem::path& file) {
  std::map<std::string, std::string> params;
  std::ifstream in(file);
  for (std::string line; std::getline(in, line);) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) params[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_dir = arg_value(argc, argv, "--out", nullptr);
  std::filesystem::path store_dir;
  if (const char* s = arg_value(argc, argv, "--store", nullptr)) {
    store_dir = s;
  } else if (out_dir != nullptr) {
    store_dir = std::filesystem::path(out_dir) / "store";
  }

  if (has_flag(argc, argv, "--compact-store")) {
    if (store_dir.empty()) {
      std::fprintf(stderr, "--compact-store requires --store DIR or --out DIR\n");
      return 2;
    }
    store::EpochStore store(store_dir);
    auto compacted = store.compact(1);
    if (compacted.has_value()) {
      std::printf("store: compacted chain into full snapshot at epoch %llu\n",
                  static_cast<unsigned long long>(*compacted));
    } else {
      std::printf("store: nothing to compact\n");
    }
    return 0;
  }

  if (out_dir == nullptr) {
    std::fprintf(stderr,
                 "usage: vcsearch-build --out DIR [--docs DIR | --synth N] [--seed S]\n"
                 "       [--modulus-bits B] [--rep-bits B] [--interval N] [--store DIR]\n");
    return 2;
  }
  std::filesystem::path out(out_dir);

  if (const char* update = arg_value(argc, argv, "--update-synth", nullptr)) {
    if (!std::filesystem::exists(store_dir / store::EpochStore::kCurrentFile)) {
      std::fprintf(stderr, "store %s has no published epoch; run vcsearch-build first\n",
                   store_dir.c_str());
      return 2;
    }
    store::EpochStore store(store_dir);
    // The store's CURRENT epoch is the owner's state: reopen the builder
    // over it, so the delta below chains to exactly the epoch being served.
    IndexBuilder vidx = IndexBuilder::from_snapshot(store.open_current().snapshot);
    SigningKey owner_key = SigningKey::load((out / "owner.key").string());
    auto owner_ctx = AccumulatorContext::owner(
        standard_accumulator_modulus(vidx.config().modulus_bits),
        standard_qr_generator(vidx.config().modulus_bits));

    std::uint32_t n = static_cast<std::uint32_t>(std::strtoul(update, nullptr, 10));
    // Draw over the base corpus's vocabulary: the profile of its seed and
    // size, with N documents.  An index built from --docs recorded neither;
    // it falls back to --seed and a vocabulary sized from N.
    const auto params = read_params(out / "params.txt");
    const auto base_seed = params.find("synth_seed");
    const auto base_docs = params.find("synth_docs");
    std::uint64_t seed = std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
    std::uint32_t vocab_docs = n;
    if (base_seed != params.end() && base_docs != params.end()) {
      seed = std::strtoull(base_seed->second.c_str(), nullptr, 10);
      vocab_docs =
          static_cast<std::uint32_t>(std::strtoul(base_docs->second.c_str(), nullptr, 10));
    }
    SynthSpec add_spec = enron_profile(vocab_docs, seed);
    add_spec.num_docs = n;
    // Fresh draws over the same vocabulary, docIDs continuing past the
    // indexed ones (epoch number salts doc_seed so repeated updates differ).
    add_spec.doc_seed = seed + 1000 + vidx.epoch();
    Corpus add_corpus = generate_corpus(add_spec);
    std::uint32_t offset = vidx.index().doc_count();
    std::vector<Document> docs;
    for (const Document& d : add_corpus) {
      docs.push_back(Document{d.id + offset, d.name, d.text});
    }
    double update_s = 0;
    UpdateTimings timings = [&] {
      ScopedTimer timer(update_s);
      return vidx.add_documents(docs, owner_ctx, owner_key);
    }();
    std::printf("updated index in %.2fs: +%zu docs, %zu touched terms (%zu new)\n",
                update_s, docs.size(), timings.touched_terms, timings.new_terms);

    auto delta = vidx.publish_delta();
    if (!delta.has_value()) {
      std::fprintf(stderr, "update produced no delta to publish\n");
      return 1;
    }
    std::size_t touched = delta->touched.size();
    auto published = store.publish_delta(*delta, 1);
    std::printf("store: published delta epoch %llu to %s (%zu touched terms, %.2f MB)\n",
                static_cast<unsigned long long>(delta->epoch), published.c_str(), touched,
                static_cast<double>(std::filesystem::file_size(
                    published / store::EpochStore::kDeltaFile)) /
                    (1024 * 1024));
    return 0;
  }

  // Refused parameters leave nothing behind: validate before creating the
  // output or store directory.
  VerifiableIndexConfig config;
  config.modulus_bits = std::strtoul(arg_value(argc, argv, "--modulus-bits", "1024"),
                                     nullptr, 10);
  config.rep_bits = std::strtoul(arg_value(argc, argv, "--rep-bits", "128"), nullptr, 10);
  config.interval_size = std::strtoul(arg_value(argc, argv, "--interval", "100"),
                                      nullptr, 10);
  try {
    config.validate();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // A fresh build commits epoch 1; publishing it over an existing history
  // would leave the old epoch-1 file in place (republish trusts the file on
  // disk) next to freshly generated keys.
  std::filesystem::create_directories(out);
  store::EpochStore store(store_dir);
  if (store.has_current()) {
    std::fprintf(stderr,
                 "store %s already holds a published index; extend it with "
                 "--update-synth, or build into an empty --out / --store\n",
                 store_dir.c_str());
    return 2;
  }

  std::uint64_t seed = std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
  Corpus corpus("cli");
  std::uint32_t synth_docs = 0;  // 0: the corpus came from --docs
  if (const char* dir = arg_value(argc, argv, "--docs", nullptr)) {
    std::size_t loaded = corpus.load_directory(dir);
    std::printf("loaded %zu documents from %s (%.2f MB)\n", loaded, dir,
                static_cast<double>(corpus.total_bytes()) / (1024 * 1024));
  } else {
    synth_docs = static_cast<std::uint32_t>(
        std::strtoul(arg_value(argc, argv, "--synth", "500"), nullptr, 10));
    corpus = generate_corpus(enron_profile(synth_docs, seed));
    std::printf("generated synthetic corpus: %zu documents (%.2f MB)\n", corpus.size(),
                static_cast<double>(corpus.total_bytes()) / (1024 * 1024));
  }

  auto owner_ctx = AccumulatorContext::owner(
      standard_accumulator_modulus(config.modulus_bits),
      standard_qr_generator(config.modulus_bits));
  DeterministicRng key_rng(seed, "vc.cli.keys");
  SigningKey owner_key = generate_signing_key(key_rng, config.modulus_bits);
  SigningKey cloud_key = generate_signing_key(key_rng, config.modulus_bits);

  ThreadPool pool;
  BuildStats stats;
  double build_s = 0;
  IndexBuilder vidx = [&] {
    ScopedTimer timer(build_s);
    return IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx, owner_key,
                                  config, pool, BalanceStrategy::kRecordBased, &stats);
  }();
  std::printf("built verifiable index in %.2fs: %zu terms, %llu records\n"
              "  primes %.2fs, accumulators %.2fs, dictionary %.2fs\n",
              build_s, stats.terms, static_cast<unsigned long long>(stats.records),
              stats.prime_precompute_seconds, stats.accumulate_seconds,
              stats.dictionary_seconds);

  owner_key.save((out / "owner.key").string());
  cloud_key.save((out / "cloud.key").string());
  {
    std::ofstream params(out / "params.txt");
    params << "modulus_bits=" << config.modulus_bits << "\n"
           << "rep_bits=" << config.rep_bits << "\n"
           << "interval_size=" << config.interval_size << "\n"
           << "bloom_m=" << config.bloom.counters << "\n"
           << "terms=" << stats.terms << "\nrecords=" << stats.records << "\n";
    if (synth_docs != 0) {
      params << "synth_seed=" << seed << "\nsynth_docs=" << synth_docs << "\n";
    }
  }
  std::printf("wrote %s/{owner.key,cloud.key,params.txt}\n", out_dir);
  SnapshotPtr snapshot = vidx.snapshot();
  std::optional<store::TierArtifacts> artifacts;
  const char* budget_mb = arg_value(argc, argv, "--tier-budget-mb", nullptr);
  const char* hot_file = arg_value(argc, argv, "--hot-terms", nullptr);
  if (budget_mb != nullptr || hot_file != nullptr) {
    TierPolicy policy;
    if (budget_mb != nullptr) {
      policy.budget_bytes = std::strtoull(budget_mb, nullptr, 10) * 1024 * 1024;
    }
    if (hot_file != nullptr) {
      std::ifstream in(hot_file);
      if (!in) {
        std::fprintf(stderr, "cannot read --hot-terms file %s\n", hot_file);
        return 2;
      }
      for (std::string line; std::getline(in, line);) {
        std::string norm = normalize_term(line);
        if (!norm.empty()) policy.hot_terms.push_back(std::move(norm));
      }
    }
    owner_ctx.set_pool(&pool);
    TierBuildResult tier = build_witness_tier(*snapshot, owner_ctx, policy);
    if (tier.tier != nullptr) {
      snapshot->attach_tier(tier.tier);
      artifacts = store::TierArtifacts{tier.tier, std::move(tier.fixed_base)};
    }
    std::printf(
        "tier: %zu terms tiered (%zu considered, %zu over budget), "
        "%.2f MB tables + %.2f MB fixed-base, built in %.2fs\n",
        tier.tier != nullptr ? tier.tier->term_count() : 0, tier.terms_considered,
        tier.terms_skipped, static_cast<double>(tier.table_bytes) / (1024 * 1024),
        static_cast<double>(tier.fixed_base_bytes) / (1024 * 1024), tier.build_seconds);
  }
  auto published = store.publish(*snapshot, 1, artifacts ? &*artifacts : nullptr);
  std::printf("store: published epoch %llu to %s (%.2f MB)\n",
              static_cast<unsigned long long>(snapshot->epoch()), published.c_str(),
              static_cast<double>(std::filesystem::file_size(
                  published / store::EpochStore::kSnapshotFile)) /
                  (1024 * 1024));
  if (has_flag(argc, argv, "--profile")) {
    std::printf("\nbuild stage profile\n%s",
                obs::render_profile(obs::MetricsRegistry::global()).c_str());
  }
  return 0;
}
