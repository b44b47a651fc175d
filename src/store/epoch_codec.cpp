#include "store/epoch_codec.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "store/codec_detail.hpp"
#include "support/stopwatch.hpp"

namespace vc::store {

namespace {

using detail::MappedEntrySource;
using detail::MappedPrimeBacking;
using detail::ParsedLayout;
using detail::Record;
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

// A directory of (name, offset, size) triples locating blobs inside
// `blobs`; names must be strictly sorted.
void read_directory(ByteReader& r, std::span<const std::uint8_t> blobs,
                    std::vector<std::string>& names, std::vector<TermLoc>& locs,
                    const char* what) {
  const std::size_t count = r.count(3);  // name, offset, size: a byte each at least
  names.reserve(count);
  locs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(r.str());
    TermLoc loc{.offset = r.varint(), .size = r.varint()};
    if (!detail::extent_fits(loc.offset, loc.size, blobs.size())) {
      throw StoreCorruptError(std::string(what) + " points past its blobs");
    }
    if (i > 0 && names[i] <= names[i - 1]) {
      throw StoreCorruptError(std::string(what) + " terms not strictly sorted");
    }
    locs.push_back(loc);
  }
  r.expect_done();
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

// --- stacked records ---------------------------------------------------------
//
// The stacked snapshot's term list is the full record's with every layer
// applied oldest→newest (touched terms upserted, removed terms dropped);
// each term remembers which layer serves it.  Entry loads dispatch to that
// layer's lazy mapped blob, so a stacked open stays O(terms) string work.

struct OverlayProvider {
  std::size_t layer = 0;  // index into the layers, full record first
  std::size_t rank = 0;   // rank within that layer's terms
};

class OverlayEntrySource final : public EntrySource {
 public:
  OverlayEntrySource(std::vector<Record> layers, std::vector<OverlayProvider> providers)
      : layers_(std::move(layers)), providers_(std::move(providers)) {}

  [[nodiscard]] std::shared_ptr<const IndexEntry> load(
      std::size_t rank, std::string_view term) const override {
    const OverlayProvider& p = providers_[rank];
    return load_layer(p.layer, p.rank, term);
  }

  [[nodiscard]] std::uint64_t stored_bytes(std::size_t rank) const override {
    const OverlayProvider& p = providers_[rank];
    return layers_[p.layer].entries->stored_bytes(p.rank);
  }

 private:
  // `term` as layer `layer` ships it; a patch applies over the version just
  // below the layer.  The full record has nothing below it.
  std::shared_ptr<const IndexEntry> load_layer(std::size_t layer, std::size_t rank,
                                               std::string_view term) const {
    detail::BaseLookup below;
    if (layer > 0) below = [this, layer](std::string_view t) { return below_layer(layer, t); };
    return layers_[layer].entries->load(rank, term, below);
  }

  // `term` as the stack held it under layer `layer`: the newest lower layer
  // that holds or removed it; null when absent.
  std::shared_ptr<const IndexEntry> below_layer(std::size_t layer,
                                                std::string_view term) const {
    for (std::size_t l = layer; l-- > 0;) {
      const Record& r = layers_[l];
      auto it = std::lower_bound(r.terms.begin(), r.terms.end(), term);
      if (it != r.terms.end() && *it == term) {
        return load_layer(l, static_cast<std::size_t>(it - r.terms.begin()), term);
      }
      if (std::binary_search(r.removed.begin(), r.removed.end(), term)) return nullptr;
    }
    return nullptr;
  }

  std::vector<Record> layers_;
  std::vector<OverlayProvider> providers_;
};

// Prime lookups consult the layers' sections newest-first.
// Representatives are deterministic, so overlap between layers is
// harmless — the first hit wins.
class ChainedPrimeBacking final : public PrimeBacking {
 public:
  explicit ChainedPrimeBacking(std::vector<std::shared_ptr<const PrimeBacking>> tiers)
      : tiers_(std::move(tiers)) {}

  [[nodiscard]] bool lookup(std::uint64_t element, Bigint& out) const override {
    for (const auto& t : tiers_) {
      if (t->lookup(element, out)) return true;
    }
    return false;
  }

  void for_each(
      const std::function<void(std::uint64_t, const Bigint&)>& fn) const override {
    for (const auto& t : tiers_) t->for_each(fn);
  }

 private:
  std::vector<std::shared_ptr<const PrimeBacking>> tiers_;
};

// Serves the surviving subset of the full record's witness tier: tables
// load through its own lazy path and are shared via aliasing pointers.
// Terms a layer touched or removed are filtered out before construction —
// their persisted witnesses are stale — which is the per-term degradation
// a stack wants instead of dropping the tier whole.
class SubsetTierSource final : public TierSource {
 public:
  explicit SubsetTierSource(std::shared_ptr<const WitnessTier> base) : base_(std::move(base)) {}

  [[nodiscard]] std::shared_ptr<const TermWitnessTable> load(
      std::size_t /*rank*/, std::string_view term) const override {
    const TermWitnessTable* t = base_->find(term);
    if (t == nullptr) {
      throw StoreCorruptError("base witness tier lost term " + std::string(term));
    }
    return {base_, t};
  }

 private:
  std::shared_ptr<const WitnessTier> base_;
};

}  // namespace

Digest param_fingerprint(const VerifiableIndexConfig& config) {
  ByteWriter w;
  config.write(w);
  return Sha256::hash(w.data());
}

namespace {

// `snap` as a full record (base epoch 0): every term in full and the
// dictionary.  The entries and the dictionary alias `snap` without owning
// it, and the prime sections are left to encode_record, which copies the
// caches one section at a time.
IndexDelta full_record(const IndexSnapshot& snap) {
  const std::shared_ptr<const void> unowned;
  IndexDelta record;
  record.epoch = snap.epoch();
  record.config = snap.config();
  for (const auto& [term, unused] : snap.entries()) {
    const IndexEntry* e = snap.find(term);
    if (e == nullptr) throw StoreError("snapshot entry vanished for term " + term);
    record.touched.emplace_hint(record.touched.end(), term,
                                std::shared_ptr<const IndexEntry>(unowned, e));
  }
  record.dict_changed = true;
  record.dict = {unowned, &snap.dictionary()};
  record.dict_attestation = {unowned, &snap.dict_attestation()};
  record.max_posting_count = snap.max_posting_count();
  return record;
}

// The one encoder.  A full record (`snap` set) takes its prime sections
// from the snapshot's caches rather than the record, one section at a time:
// merged_entries folds a store-backed cache's mapped sections back in, so
// re-encoding an opened (or stacked) epoch — compaction — keeps every
// precomputed representative, and builder-fed caches (no backing) give the
// map alone.  Only a full record carries `tier`.
Bytes encode_record(const IndexDelta& record, std::uint32_t shard_count,
                    const TierArtifacts* tier, const IndexSnapshot* snap) {
  if (tier != nullptr && tier->tier == nullptr) tier = nullptr;  // empty tier → untiered

  // Section payloads first; the header needs their sizes and CRCs.
  ByteWriter config_w;
  record.config.write(config_w);

  ByteWriter meta_w;
  meta_w.u64(record.base_epoch);
  meta_w.u64(record.max_posting_count);
  meta_w.u8(record.dict_changed ? 1 : 0);

  ByteWriter dict_w;
  if (record.dict_changed) {
    if (record.dict == nullptr || record.dict_attestation == nullptr) {
      throw StoreError("record marks the dictionary changed but carries none");
    }
    record.dict->write(dict_w);
    record.dict_attestation->write(dict_w);
  }

  ByteWriter entries_w;
  ByteWriter termdir_w;
  termdir_w.varint(record.touched.size());
  for (const auto& [term, entry] : record.touched) {
    if (entry == nullptr) throw StoreError("record entry missing for term " + term);
    std::size_t start = entries_w.size();
    auto base = record.bases.find(term);
    detail::write_entry_blob(entries_w, *entry,
                             base == record.bases.end() ? nullptr : base->second.get());
    termdir_w.str(term);
    termdir_w.varint(start);
    termdir_w.varint(entries_w.size() - start);
  }

  ByteWriter removed_w;
  removed_w.varint(record.removed.size());
  for (const std::string& term : record.removed) removed_w.str(term);

  ByteWriter tuple_w;
  ByteWriter doc_w;
  if (snap != nullptr) {
    detail::write_primes(tuple_w, snap->tuple_primes().merged_entries());
    detail::write_primes(doc_w, snap->doc_primes().merged_entries());
  } else {
    detail::write_primes(tuple_w, record.tuple_primes);
    detail::write_primes(doc_w, record.doc_primes);
  }

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
      {SectionId::kMeta, &meta_w.data()},
      {SectionId::kDictionary, &dict_w.data()},
      {SectionId::kTermDirectory, &termdir_w.data()},
      {SectionId::kEntries, &entries_w.data()},
      {SectionId::kRemoved, &removed_w.data()},
      {SectionId::kTuplePrimes, &tuple_w.data()},
      {SectionId::kDocPrimes, &doc_w.data()},
  };
  if (tier != nullptr) {
    payloads.push_back({SectionId::kWitnessTierDir, &tierdir_w.data()});
    payloads.push_back({SectionId::kWitnessTables, &tiertab_w.data()});
    payloads.push_back({SectionId::kFixedBase, &fixed_w.data()});
  }
  return detail::encode_sections(kFormatVersion, record.epoch, shard_count,
                                 param_fingerprint(record.config), payloads);
}

}  // namespace

Bytes encode_epoch(const IndexSnapshot& snap, std::uint32_t shard_count,
                   const TierArtifacts* tier) {
  return encode_record(full_record(snap), shard_count, tier, &snap);
}

Bytes encode_epoch(const IndexDelta& delta, std::uint32_t shard_count) {
  if (delta.base_epoch == 0 || delta.base_epoch >= delta.epoch) {
    throw StoreError("delta base epoch " + std::to_string(delta.base_epoch) +
                     " does not precede epoch " + std::to_string(delta.epoch));
  }
  return encode_record(delta, shard_count, nullptr, nullptr);
}

Record detail::open_record(std::shared_ptr<const MappedFile> file) {
  Stopwatch timer;
  auto data = file->bytes();
  ParsedLayout layout = parse_layout(data);
  std::size_t tier_sections = 0;
  for (const SectionInfo& s : layout.sections) {
    if (is_tier_section(s.id)) ++tier_sections;
  }
  if (tier_sections != 0 && tier_sections != 3) {
    throw StoreCorruptError("record carries " + std::to_string(tier_sections) +
                            " of the 3 witness-tier sections");
  }
  Record out;
  for (const SectionInfo& s : layout.sections) {
    if (s.crc_ok) continue;
    detail::crc_failures().inc();
    if (is_tier_section(s.id)) {
      // The tier is a pure cache over the base sections; serve untiered
      // rather than refuse the epoch.
      out.tier_degraded = true;
      continue;
    }
    throw StoreCorruptError(std::string("section ") + section_name(s.id) +
                            " CRC mismatch");
  }

  out.config = detail::read_config(section_bytes(data, layout, SectionId::kConfig),
                                   layout.fingerprint);
  out.epoch = layout.epoch;
  out.shard_count = layout.shard_count;
  out.fingerprint = layout.fingerprint;

  ByteReader meta_r(section_bytes(data, layout, SectionId::kMeta));
  out.base_epoch = meta_r.u64();
  out.max_posting_count = static_cast<std::size_t>(meta_r.u64());
  const bool has_dict = meta_r.u8() != 0;
  meta_r.expect_done();
  const bool full = out.base_epoch == 0;
  if (!full && out.base_epoch >= out.epoch) {
    throw StoreCorruptError("record base epoch " + std::to_string(out.base_epoch) +
                            " does not precede epoch " + std::to_string(out.epoch));
  }
  if (full && !has_dict) throw StoreCorruptError("full record carries no dictionary");
  if (!full && tier_sections != 0) {
    throw StoreCorruptError("layered record carries witness-tier sections");
  }

  auto dict_sec = section_bytes(data, layout, SectionId::kDictionary);
  if (has_dict) {
    ByteReader dict_r(dict_sec);
    out.dict = std::make_shared<const DictionaryIntervals>(DictionaryIntervals::read(dict_r));
    out.dict_attestation =
        std::make_shared<const DictAttestation>(DictAttestation::read(dict_r));
    dict_r.expect_done();
  } else if (!dict_sec.empty()) {
    throw StoreCorruptError("record carries a dictionary but meta marks it unchanged");
  }

  auto entries_sec = section_bytes(data, layout, SectionId::kEntries);
  out.entries_bytes = entries_sec.size();
  ByteReader td(section_bytes(data, layout, SectionId::kTermDirectory));
  std::vector<TermLoc> locs;
  read_directory(td, entries_sec, out.terms, locs, "term directory");
  out.entries = std::make_shared<const MappedEntrySource>(file, out.config, entries_sec,
                                                          std::move(locs));

  ByteReader rm(section_bytes(data, layout, SectionId::kRemoved));
  const std::size_t removed = rm.count(1);
  out.removed.reserve(removed);
  for (std::size_t i = 0; i < removed; ++i) {
    out.removed.push_back(rm.str());
    if (i > 0 && out.removed[i] <= out.removed[i - 1]) {
      throw StoreCorruptError("removed terms not strictly sorted");
    }
  }
  rm.expect_done();
  if (full && !out.removed.empty()) throw StoreCorruptError("full record removes terms");

  out.tuple_primes = std::make_shared<const MappedPrimeBacking>(
      file, section_bytes(data, layout, SectionId::kTuplePrimes));
  out.doc_primes = std::make_shared<const MappedPrimeBacking>(
      file, section_bytes(data, layout, SectionId::kDocPrimes));

  if (tier_sections != 0 && !out.tier_degraded) {
    // Tier directory: total table bytes + per-term blob locations.  The tier
    // itself stays lazy — reopening a tiered epoch never recomputes (or even
    // parses) a witness until a query touches its term.
    auto tables_sec = section_bytes(data, layout, SectionId::kWitnessTables);
    ByteReader tier_r(section_bytes(data, layout, SectionId::kWitnessTierDir));
    const std::uint64_t tier_bytes = tier_r.u64();
    std::vector<std::string> tiered;
    std::vector<TermLoc> tier_locs;
    read_directory(tier_r, tables_sec, tiered, tier_locs, "witness-tier directory");
    out.tier = std::make_shared<const WitnessTier>(
        std::move(tiered),
        std::make_shared<const MappedTierSource>(file, tables_sec, std::move(tier_locs)),
        tier_bytes);
    ByteReader fixed_r(section_bytes(data, layout, SectionId::kFixedBase));
    out.fixed_base = read_fixed_base(fixed_r);
    fixed_r.expect_done();
  }

  out.file = std::move(file);
  open_seconds().add(timer.seconds());
  mapped_bytes().set(static_cast<std::int64_t>(data.size()));
  return out;
}

OpenedEpoch detail::stack_records(std::vector<Record> layers) {
  const Record& bottom = layers.front();
  const Record& head = layers.back();
  if (bottom.base_epoch != 0) {
    throw StoreChainError("epoch " + std::to_string(bottom.epoch) + " layers over epoch " +
                          std::to_string(bottom.base_epoch) + "; open it through its store");
  }
  std::uint64_t entries_bytes = 0;
  for (const Record& r : layers) {
    if (r.fingerprint != head.fingerprint) {
      throw StoreParamMismatchError("epoch " + std::to_string(r.epoch) +
                                    " was written under other index parameters than "
                                    "chain head " + std::to_string(head.epoch));
    }
    entries_bytes += r.entries_bytes;
  }
  detail::check_max_posting_count(head.max_posting_count, entries_bytes);

  // Merged term list, layer by layer: a layer's terms upsert, its removed
  // terms drop out.  Both lists are sorted, so each layer is one merge.
  std::vector<std::string> terms;
  std::vector<OverlayProvider> providers;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Record& r = layers[l];
    std::vector<std::string> merged;
    std::vector<OverlayProvider> merged_providers;
    merged.reserve(terms.size() + r.terms.size());
    merged_providers.reserve(terms.size() + r.terms.size());
    std::size_t i = 0;
    for (std::size_t j = 0; j <= r.terms.size(); ++j) {
      for (; i < terms.size() && (j == r.terms.size() || terms[i] < r.terms[j]); ++i) {
        if (std::binary_search(r.removed.begin(), r.removed.end(), terms[i])) continue;
        merged.push_back(std::move(terms[i]));
        merged_providers.push_back(providers[i]);
      }
      if (j == r.terms.size()) break;
      if (i < terms.size() && terms[i] == r.terms[j]) ++i;  // upserted
      merged.push_back(r.terms[j]);
      merged_providers.push_back(OverlayProvider{l, j});
    }
    terms = std::move(merged);
    providers = std::move(merged_providers);
  }

  // Newest-first prime resolution; the dictionary of the newest layer that
  // carries one (the full record always does).
  std::vector<std::shared_ptr<const PrimeBacking>> tuple_tiers, doc_tiers;
  std::shared_ptr<const DictionaryIntervals> dict;
  std::shared_ptr<const DictAttestation> dict_att;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    tuple_tiers.push_back(it->tuple_primes);
    doc_tiers.push_back(it->doc_primes);
    if (dict == nullptr && it->dict != nullptr) {
      dict = it->dict;
      dict_att = it->dict_attestation;
    }
  }
  const VerifiableIndexConfig config = head.config;
  auto tuple_primes = std::make_shared<PrimeCache>(config.tuple_prime_config());
  tuple_primes->set_backing(std::make_shared<const ChainedPrimeBacking>(std::move(tuple_tiers)));
  auto doc_primes = std::make_shared<PrimeCache>(config.doc_prime_config());
  doc_primes->set_backing(std::make_shared<const ChainedPrimeBacking>(std::move(doc_tiers)));

  // Witness tier: keep the full record's tables for terms no layer touched
  // or removed — their sets are unchanged, so the persisted witnesses are
  // still the unique residues.  Touched terms degrade to the compute path.
  OpenedEpoch out;
  if (bottom.tier != nullptr) {
    std::vector<std::string> surviving;
    for (const std::string& term : bottom.tier->terms()) {
      const bool stale = std::any_of(layers.begin() + 1, layers.end(), [&](const Record& r) {
        return std::binary_search(r.terms.begin(), r.terms.end(), term) ||
               std::binary_search(r.removed.begin(), r.removed.end(), term);
      });
      if (!stale) surviving.push_back(term);
    }
    if (surviving.size() == bottom.tier->term_count()) {
      out.tier = bottom.tier;
    } else if (!surviving.empty()) {
      out.tier = std::make_shared<const WitnessTier>(
          std::move(surviving), std::make_shared<const SubsetTierSource>(bottom.tier),
          bottom.tier->table_bytes());
    }
  }
  out.fixed_base = bottom.fixed_base;
  out.tier_degraded = bottom.tier_degraded;
  out.shard_count = head.shard_count;
  out.file = bottom.file;
  out.base_epoch = bottom.epoch;
  out.chain_length = static_cast<std::uint32_t>(layers.size() - 1);

  const std::uint64_t epoch = head.epoch;
  const std::size_t max_posting_count = head.max_posting_count;
  auto source = std::make_shared<const OverlayEntrySource>(std::move(layers),
                                                           std::move(providers));
  out.snapshot = std::make_shared<const IndexSnapshot>(
      config, epoch, std::move(terms), std::move(source), max_posting_count, std::move(dict),
      std::move(dict_att), std::move(tuple_primes), std::move(doc_primes));
  if (out.tier != nullptr) out.snapshot->attach_tier(out.tier);
  return out;
}

OpenedEpoch open_snapshot(std::shared_ptr<const MappedFile> file) {
  std::vector<Record> layers;
  layers.push_back(detail::open_record(std::move(file)));
  return detail::stack_records(std::move(layers));
}

StoreFileInfo inspect_file(const MappedFile& file) {
  ParsedLayout layout = parse_layout(file.bytes());
  StoreFileInfo info;
  info.format_version = layout.format_version;
  info.epoch = layout.epoch;
  info.shard_count = layout.shard_count;
  info.param_fingerprint = layout.fingerprint;
  info.file_bytes = layout.file_bytes;
  // Summaries from intact sections (counts only; no payload parses —
  // inspect stays cheap on corrupt files).
  for (const SectionInfo& s : layout.sections) {
    if (!s.crc_ok) continue;
    ByteReader r(file.bytes().subspan(s.offset, s.size));
    if (s.id == SectionId::kMeta) {
      info.base_epoch = r.u64();
    } else if (s.id == SectionId::kTermDirectory) {
      info.terms = r.varint();
    } else if (s.id == SectionId::kRemoved) {
      info.removed_terms = r.varint();
    } else if (s.id == SectionId::kWitnessTierDir) {
      info.tier_table_bytes = r.u64();
      info.tier_terms = r.varint();
    }
  }
  info.sections = std::move(layout.sections);
  return info;
}

}  // namespace vc::store
