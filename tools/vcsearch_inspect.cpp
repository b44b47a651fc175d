// vcsearch-inspect — print the contents and statistics of the verifiable
// index the epoch store serves, and optionally re-validate all owner
// signatures.
//
//   vcsearch-inspect --dir DIR [--store DIR] [--top N] [--validate]
//   vcsearch-inspect --store DIR [--epoch N]
//
// The --dir form reopens the builder over the store's CURRENT epoch (--store,
// default DIR/store) and prints index statistics; --validate runs the
// receipt check (Fig 1's acknowledge step) under DIR/owner.key.  The
// --store-only form dumps the store's layout instead: the epochs on disk,
// the CURRENT pointer, the delta chain CURRENT resolves through (base
// epoch, per-delta touched/removed term counts, compaction status,
// per-record CRC verdicts), and the full header + section table (with CRC
// verdicts) of one epoch file.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cli_args.hpp"
#include "store/epoch_store.hpp"
#include "vindex/index_builder.hpp"

using namespace vc;

namespace {
// Dumps the store root, the CURRENT delta chain, then the header + section
// table of one epoch file (--epoch N, defaulting to CURRENT; snapshots and
// deltas are the same record format).  Exits non-zero when any chain record or the
// chosen epoch fails structural validation so scripts can gate on it.
int inspect_store(const char* store_dir, int argc, char** argv) {
  store::EpochStore store(store_dir);
  auto epochs = store.epochs();
  std::printf("epoch store: %s\n", store_dir);
  std::printf("  epochs on disk   %zu\n", epochs.size());
  if (epochs.empty()) return 0;
  bool all_ok = true;

  auto current = store.current_epoch();
  if (current) {
    std::printf("  CURRENT          epoch %llu\n",
                static_cast<unsigned long long>(*current));
  } else {
    std::printf("  CURRENT          (missing)\n");
  }

  // The delta chain CURRENT resolves through, head first.  Every record
  // gets a CRC verdict (crc check over all sections of that file).
  if (current) {
    try {
      auto chain = store.current_chain();
      if (chain.size() == 1 && !chain.front().is_delta && !chain.front().compacted) {
        std::printf("  chain            (none: full snapshot)\n");
      } else {
        std::printf("  chain            %zu link(s), %s\n", chain.size(),
                    chain.front().is_delta
                        ? "compaction pending"
                        : "head compacted (snapshot supersedes its delta)");
      }
      for (const auto& link : chain) {
        store::StoreFileInfo info = store::inspect_file(store::MappedFile(link.file));
        bool crc_ok = true;
        for (const auto& s : info.sections) crc_ok = crc_ok && s.crc_ok;
        all_ok = all_ok && crc_ok;
        if (link.is_delta) {
          std::printf("    epoch %-8llu delta     base=%-8llu touched=%-6llu "
                      "removed=%-4llu crc=%s\n",
                      static_cast<unsigned long long>(link.epoch),
                      static_cast<unsigned long long>(info.base_epoch),
                      static_cast<unsigned long long>(info.terms),
                      static_cast<unsigned long long>(info.removed_terms),
                      crc_ok ? "OK" : "BAD");
        } else {
          std::printf("    epoch %-8llu snapshot  %-38s crc=%s\n",
                      static_cast<unsigned long long>(link.epoch),
                      link.compacted ? "(compacted from delta chain)" : "(full publish)",
                      crc_ok ? "OK" : "BAD");
        }
      }
    } catch (const store::StoreError& e) {
      std::printf("    chain walk failed: %s\n", e.what());
      all_ok = false;
    }
  }

  std::uint64_t chosen = current.value_or(epochs.back());
  if (const char* e = arg_value(argc, argv, "--epoch", nullptr)) {
    chosen = std::strtoull(e, nullptr, 10);
  }
  auto path = store.epoch_file(chosen);
  if (!std::filesystem::exists(path)) path = store.delta_file(chosen);
  store::MappedFile file(path);
  store::StoreFileInfo info = store::inspect_file(file);
  std::printf("  epoch file       %s\n", path.c_str());
  std::printf("    format version %u\n", info.format_version);
  std::printf("    epoch          %llu\n", static_cast<unsigned long long>(info.epoch));
  std::printf("    shard count    %u\n", info.shard_count);
  std::printf("    file bytes     %llu\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("    param fp       %s...\n",
              to_hex(info.param_fingerprint).substr(0, 16).c_str());
  for (const auto& s : info.sections) {
    std::printf("    section %-20s offset=%-10llu size=%-10llu crc=%08x %s\n",
                store::section_name(s.id), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc, s.crc_ok ? "OK" : "BAD");
    all_ok = all_ok && s.crc_ok;
  }
  std::printf("    record         base epoch %llu, %llu touched, %llu removed\n",
              static_cast<unsigned long long>(info.base_epoch),
              static_cast<unsigned long long>(info.terms),
              static_cast<unsigned long long>(info.removed_terms));
  if (std::any_of(info.sections.begin(), info.sections.end(), [](const auto& s) {
        return store::is_tier_section(s.id);
      })) {
    std::printf("    witness tier   %llu terms, %llu table bytes\n",
                static_cast<unsigned long long>(info.tier_terms),
                static_cast<unsigned long long>(info.tier_table_bytes));
  }
  return all_ok ? 0 : 1;
}

int run(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir", nullptr);
  const char* store_arg = arg_value(argc, argv, "--store", nullptr);
  if (dir == nullptr && store_arg != nullptr) return inspect_store(store_arg, argc, argv);
  if (dir == nullptr) {
    std::fprintf(stderr,
                 "usage: vcsearch-inspect --dir DIR [--store DIR] [--top N] [--validate]\n"
                 "       vcsearch-inspect --store DIR [--epoch N]\n");
    return 2;
  }
  std::size_t top = std::strtoul(arg_value(argc, argv, "--top", "10"), nullptr, 10);

  std::filesystem::path base(dir);
  const std::filesystem::path store_dir =
      store_arg != nullptr ? std::filesystem::path(store_arg) : base / "store";
  if (!std::filesystem::exists(store_dir / store::EpochStore::kCurrentFile)) {
    std::fprintf(stderr, "store %s has no published epoch; run vcsearch-build first\n",
                 store_dir.c_str());
    return 2;
  }
  store::EpochStore store(store_dir);
  IndexBuilder vidx = IndexBuilder::from_snapshot(store.open_current().snapshot);
  const auto& cfg = vidx.config();
  std::printf("verifiable index: %s (epoch %llu)\n", store_dir.c_str(),
              static_cast<unsigned long long>(vidx.epoch()));
  std::printf("  modulus          %zu bits\n", cfg.modulus_bits);
  std::printf("  prime reps       %zu bits\n", cfg.rep_bits);
  std::printf("  interval size    %zu\n", cfg.interval_size);
  std::printf("  bloom            m=%u k=%u\n", cfg.bloom.counters, cfg.bloom.hashes);
  std::printf("  documents        %u\n", vidx.index().doc_count());
  std::printf("  terms            %zu\n", vidx.term_count());
  std::printf("  records          %llu\n",
              static_cast<unsigned long long>(vidx.index().record_count()));
  std::printf("  avg doc freq     %.1f\n", vidx.index().avg_document_frequency());
  std::printf("  prime cache      %zu tuple / %zu doc entries\n",
              vidx.tuple_primes().merged_entries().size(),
              vidx.doc_primes().merged_entries().size());
  std::printf("  dictionary gaps  %zu\n", vidx.dictionary().word_count() + 1);

  // Posting-list size distribution (what load balancing fights, Fig 9).
  std::vector<std::size_t> sizes;
  for (const auto& [term, list] : vidx.index().terms()) sizes.push_back(list.size());
  std::sort(sizes.begin(), sizes.end());
  auto pct = [&](double p) { return sizes[static_cast<std::size_t>(p * (sizes.size() - 1))]; };
  std::printf("  postings p50/p90/p99/max  %zu / %zu / %zu / %zu\n", pct(0.5), pct(0.9),
              pct(0.99), sizes.back());

  std::printf("  top %zu terms by document frequency:\n", top);
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& [term, list] : vidx.index().terms()) ranked.emplace_back(list.size(), term);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    std::printf("    %-24s %zu docs\n", ranked[i].second.c_str(), ranked[i].first);
  }

  if (has_flag(argc, argv, "--validate")) {
    SigningKey owner_key = SigningKey::load((base / "owner.key").string());
    vidx.validate(owner_key.verify_key());
    std::printf("  validation       all %zu attestations verify\n", vidx.term_count() * 2 + 1);
  }
  return 0;
}

}  // namespace

// A store that fails to open (bad magic, CRC, chain) exits 1 with the typed error.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "vcsearch-inspect: %s\n", e.what());
    return 1;
  }
}
