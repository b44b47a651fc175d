#include "store/snapshot_codec.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "obs/metrics.hpp"
#include "store/codec_detail.hpp"
#include "store/crc32.hpp"
#include "support/stopwatch.hpp"

namespace vc::store {

namespace {

using detail::MappedEntrySource;
using detail::MappedPrimeBacking;
using detail::ParsedLayout;
using detail::TermLoc;
using detail::parse_layout;
using detail::section_bytes;

obs::TimeCounter& open_seconds() {
  static obs::TimeCounter& t = obs::MetricsRegistry::global().time_counter(
      "vc_store_open_seconds", "", "Wall time spent opening epoch files");
  return t;
}
obs::Gauge& mapped_bytes() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_store_mapped_bytes", "", "Size of the most recently opened epoch mapping");
  return g;
}

// --- lazy witness-tier source ------------------------------------------------

class MappedTierSource final : public TierSource {
 public:
  MappedTierSource(std::shared_ptr<const MappedFile> file,
                   std::span<const std::uint8_t> tables, std::vector<TermLoc> locs)
      : file_(std::move(file)), tables_(tables), locs_(std::move(locs)) {}

  [[nodiscard]] std::shared_ptr<const TermWitnessTable> load(
      std::size_t rank, std::string_view /*term*/) const override {
    const TermLoc& loc = locs_[rank];
    ByteReader r(tables_.subspan(loc.offset, loc.size));
    auto table = std::make_shared<TermWitnessTable>(TermWitnessTable::read(r));
    r.expect_done();
    table->byte_size = loc.size;
    return table;
  }

 private:
  std::shared_ptr<const MappedFile> file_;  // keeps the mapping alive
  std::span<const std::uint8_t> tables_;
  std::vector<TermLoc> locs_;
};

}  // namespace

Digest param_fingerprint(const VerifiableIndexConfig& config) {
  ByteWriter w;
  config.write(w);
  return Sha256::hash(w.data());
}

Bytes encode_snapshot(const IndexSnapshot& snap, std::uint32_t shard_count,
                      const TierArtifacts* tier) {
  if (tier != nullptr && tier->tier == nullptr) tier = nullptr;  // empty tier → untiered
  // Section payloads first; the header needs their sizes and CRCs.
  ByteWriter config_w;
  snap.config().write(config_w);

  ByteWriter dict_w;
  snap.dictionary().write(dict_w);
  snap.dict_attestation().write(dict_w);

  ByteWriter entries_w;
  ByteWriter termdir_w;
  termdir_w.u64(snap.max_posting_count());
  termdir_w.varint(snap.entries().size());
  for (const auto& [term, unused] : snap.entries()) {
    const IndexEntry* e = snap.find(term);
    if (e == nullptr) throw StoreError("snapshot entry vanished for term " + term);
    std::size_t start = entries_w.size();
    detail::write_entry(entries_w, *e);
    termdir_w.str(term);
    termdir_w.varint(start);
    termdir_w.varint(entries_w.size() - start);
  }

  // merged_entries folds a store-backed cache's mapped sections back in, so
  // re-encoding an opened (or overlay) epoch — compaction — keeps every
  // precomputed representative.  Builder-fed caches have no backing and the
  // output is byte-identical to the map alone.
  ByteWriter tuple_w;
  detail::write_primes(tuple_w, snap.tuple_primes().merged_entries());
  ByteWriter doc_w;
  detail::write_primes(doc_w, snap.doc_primes().merged_entries());

  // Tier payloads: witness-table blobs, the directory locating them, and the
  // fixed-base image.  Lazy tiers materialize table-by-table here — the
  // publish path hands in eager tiers, and re-encoding an opened epoch
  // round-trips the mapped one.
  ByteWriter tierdir_w;
  ByteWriter tiertab_w;
  ByteWriter fixed_w;
  if (tier != nullptr) {
    const WitnessTier& t = *tier->tier;
    tierdir_w.u64(t.table_bytes());
    tierdir_w.varint(t.term_count());
    for (const std::string& term : t.terms()) {
      const TermWitnessTable* table = t.find(term);
      if (table == nullptr) throw StoreError("witness tier table vanished for term " + term);
      std::size_t start = tiertab_w.size();
      table->write(tiertab_w);
      tierdir_w.str(term);
      tierdir_w.varint(start);
      tierdir_w.varint(tiertab_w.size() - start);
    }
    write_fixed_base(fixed_w, tier->fixed_base);
  }

  std::vector<detail::SectionPayload> payloads = {
      {SectionId::kConfig, &config_w.data()},
      {SectionId::kDictionary, &dict_w.data()},
      {SectionId::kTermDirectory, &termdir_w.data()},
      {SectionId::kEntries, &entries_w.data()},
      {SectionId::kTuplePrimes, &tuple_w.data()},
      {SectionId::kDocPrimes, &doc_w.data()},
  };
  if (tier != nullptr) {
    payloads.push_back({SectionId::kWitnessTierDir, &tierdir_w.data()});
    payloads.push_back({SectionId::kWitnessTables, &tiertab_w.data()});
    payloads.push_back({SectionId::kFixedBase, &fixed_w.data()});
  }

  return detail::encode_sections(kFormatVersion, snap.epoch(), shard_count,
                                 param_fingerprint(snap.config()), payloads);
}

OpenedEpoch open_snapshot(std::shared_ptr<const MappedFile> file) {
  Stopwatch timer;
  auto data = file->bytes();
  ParsedLayout layout = parse_layout(data);
  if (layout.format_version == kFormatVersionDelta) {
    throw StoreCorruptError("file is a delta record, not a snapshot (open it via "
                            "open_delta / the chain-resolving store open)");
  }
  // Section coherence: the tier sections come all together or not at all,
  // and no snapshot carries delta sections.
  std::size_t tier_sections = 0;
  for (const SectionInfo& s : layout.sections) {
    if (is_tier_section(s.id)) ++tier_sections;
    if (is_delta_section(s.id)) {
      throw StoreCorruptError("snapshot file contains delta sections");
    }
  }
  if (tier_sections != 0 && tier_sections != 3) {
    throw StoreCorruptError("snapshot carries " + std::to_string(tier_sections) +
                            " of the 3 witness-tier sections");
  }
  bool tier_degraded = false;
  for (const SectionInfo& s : layout.sections) {
    if (s.crc_ok) continue;
    detail::crc_failures().inc();
    if (is_tier_section(s.id)) {
      // The tier is a pure cache over the base sections; serve untiered
      // rather than refuse the epoch.
      tier_degraded = true;
      continue;
    }
    throw StoreCorruptError(std::string("section ") + section_name(s.id) +
                            " CRC mismatch");
  }

  VerifiableIndexConfig config = detail::read_config(
      section_bytes(data, layout, SectionId::kConfig), layout.fingerprint);

  ByteReader dict_r(section_bytes(data, layout, SectionId::kDictionary));
  auto dict = std::make_shared<const DictionaryIntervals>(DictionaryIntervals::read(dict_r));
  auto dict_att = std::make_shared<const DictAttestation>(DictAttestation::read(dict_r));
  dict_r.expect_done();

  auto entries_sec = section_bytes(data, layout, SectionId::kEntries);
  ByteReader td(section_bytes(data, layout, SectionId::kTermDirectory));
  std::uint64_t max_posting_count = td.u64();
  detail::check_max_posting_count(max_posting_count, entries_sec.size());
  const std::size_t term_count = td.count(3);  // name, offset, size: a byte each at least
  std::vector<std::string> terms;
  std::vector<TermLoc> locs;
  terms.reserve(term_count);
  locs.reserve(term_count);
  for (std::size_t i = 0; i < term_count; ++i) {
    terms.push_back(td.str());
    TermLoc loc{.offset = td.varint(), .size = td.varint()};
    if (!detail::extent_fits(loc.offset, loc.size, entries_sec.size())) {
      throw StoreCorruptError("term directory points past entries section");
    }
    locs.push_back(loc);
  }
  td.expect_done();

  auto source = std::make_shared<const MappedEntrySource>(file, config, entries_sec,
                                                          std::move(locs), /*delta_blobs=*/false);

  auto tuple_primes = std::make_shared<PrimeCache>(config.tuple_prime_config());
  tuple_primes->set_backing(std::make_shared<const MappedPrimeBacking>(
      file, section_bytes(data, layout, SectionId::kTuplePrimes)));
  auto doc_primes = std::make_shared<PrimeCache>(config.doc_prime_config());
  doc_primes->set_backing(std::make_shared<const MappedPrimeBacking>(
      file, section_bytes(data, layout, SectionId::kDocPrimes)));

  OpenedEpoch out;
  out.tier_degraded = tier_degraded;
  out.entries_bytes = entries_sec.size();
  out.snapshot = std::make_shared<const IndexSnapshot>(
      config, layout.epoch, std::move(terms), std::move(source),
      static_cast<std::size_t>(max_posting_count), std::move(dict), std::move(dict_att),
      std::move(tuple_primes), std::move(doc_primes));

  if (tier_sections != 0 && !tier_degraded) {
    // Tier directory: total table bytes + per-term blob locations.  The tier
    // itself stays lazy — reopening a tiered epoch never recomputes (or even
    // parses) a witness until a query touches its term.
    auto tables_sec = section_bytes(data, layout, SectionId::kWitnessTables);
    ByteReader tier_r(section_bytes(data, layout, SectionId::kWitnessTierDir));
    std::uint64_t tier_bytes = tier_r.u64();
    const std::size_t tier_terms = tier_r.count(3);
    std::vector<std::string> tiered;
    std::vector<TermLoc> tier_locs;
    tiered.reserve(tier_terms);
    tier_locs.reserve(tier_terms);
    for (std::size_t i = 0; i < tier_terms; ++i) {
      tiered.push_back(tier_r.str());
      TermLoc loc{.offset = tier_r.varint(), .size = tier_r.varint()};
      if (!detail::extent_fits(loc.offset, loc.size, tables_sec.size())) {
        throw StoreCorruptError("witness-tier directory points past tables section");
      }
      tier_locs.push_back(loc);
    }
    tier_r.expect_done();
    auto tier_source =
        std::make_shared<const MappedTierSource>(file, tables_sec, std::move(tier_locs));
    out.tier = std::make_shared<const WitnessTier>(std::move(tiered),
                                                   std::move(tier_source), tier_bytes);
    out.snapshot->attach_tier(out.tier);

    ByteReader fixed_r(section_bytes(data, layout, SectionId::kFixedBase));
    out.fixed_base = read_fixed_base(fixed_r);
    fixed_r.expect_done();
  }

  out.shard_count = layout.shard_count;
  out.base_epoch = layout.epoch;
  out.file = std::move(file);
  open_seconds().add(timer.seconds());
  mapped_bytes().set(static_cast<std::int64_t>(data.size()));
  return out;
}

StoreFileInfo inspect_file(const MappedFile& file) {
  ParsedLayout layout = parse_layout(file.bytes());
  StoreFileInfo info;
  info.format_version = layout.format_version;
  info.epoch = layout.epoch;
  info.shard_count = layout.shard_count;
  info.param_fingerprint = layout.fingerprint;
  info.file_bytes = layout.file_bytes;
  // Tier / delta summaries from intact directories (counts only; no payload
  // parses — inspect stays cheap on corrupt files).
  for (const SectionInfo& s : layout.sections) {
    if (!s.crc_ok) continue;
    ByteReader r(file.bytes().subspan(s.offset, s.size));
    if (s.id == SectionId::kWitnessTierDir) {
      info.tier_table_bytes = r.u64();
      info.tier_terms = r.varint();
    } else if (s.id == SectionId::kDeltaMeta) {
      info.delta_base_epoch = r.u64();
    } else if (s.id == SectionId::kDeltaTermDirectory) {
      info.delta_touched_terms = r.varint();
    } else if (s.id == SectionId::kDeltaRemoved) {
      info.delta_removed_terms = r.varint();
    }
  }
  info.sections = std::move(layout.sections);
  return info;
}

}  // namespace vc::store
