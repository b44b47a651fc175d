// Building blocks of the epoch-record codec (epoch_codec.cpp) and the
// store's chain walk (epoch_store.cpp): per-term entry blob
// (de)serialization, the binary-searchable prime-section layout, the lazy
// mapped sources, the header/section-table parser, and the one-record
// decoder plus the stacking of records into a snapshot.  Everything here is
// an implementation detail of src/store — tools go through the public codec
// header (tests also use encode_sections to lay out forged files).
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/crc32.hpp"
#include "store/epoch_codec.hpp"
#include "store/mapped_file.hpp"

namespace vc::store::detail {

inline obs::Counter& crc_failures() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_crc_failures_total", "", "Epoch sections rejected by CRC validation");
  return c;
}
inline obs::Counter& entries_materialized() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_entries_materialized_total", "",
      "Per-term index entries parsed out of mapped epochs on first touch");
  return c;
}

inline std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // the toolchain targets little-endian platforms only
}

// --- config and counts -------------------------------------------------------

// The config section, checked against the header fingerprint and then
// validated: its values size allocations (the serving side's fixed-base
// table is (max_posting_count + 1)·rep_bits bits), so a forged config is a
// typed error here rather than a huge allocation later.
inline VerifiableIndexConfig read_config(std::span<const std::uint8_t> section,
                                         const Digest& fingerprint) {
  if (Sha256::hash(section) != fingerprint) {
    throw StoreParamMismatchError("header fingerprint does not match config section");
  }
  ByteReader r(section);
  VerifiableIndexConfig config = VerifiableIndexConfig::read(r);
  r.expect_done();
  try {
    config.validate();
  } catch (const UsageError& e) {
    throw StoreCorruptError(std::string("config section: ") + e.what());
  }
  return config;
}

// Every posting is 8 bytes in some layer's entry or patch blob, so a
// max_posting_count above (entries bytes of the layers) / 8 is forged.
inline void check_max_posting_count(std::uint64_t max_posting_count,
                                    std::uint64_t entries_bytes) {
  if (max_posting_count > entries_bytes / 8) {
    throw StoreCorruptError("max posting count " + std::to_string(max_posting_count) +
                            " exceeds what " + std::to_string(entries_bytes) +
                            " entry bytes hold");
  }
}

// --- entry blobs -------------------------------------------------------------

// Count-prefixed run of postings, u32 docID + u32 tf each.
inline void write_postings(ByteWriter& w, std::span<const Posting> postings) {
  w.varint(postings.size());
  for (const Posting& p : postings) {
    w.u32(p.doc_id);
    w.u32(p.tf);
  }
}

inline void write_entry(ByteWriter& w, const IndexEntry& e) {
  write_postings(w, e.postings);
  e.tuple_intervals.write(w);
  e.doc_intervals.write(w);
  e.attestation.write(w);
  e.bloom_attestation.write(w);
}

// Appends a write_postings run to `out`.
inline void read_postings(ByteReader& r, PostingList& out) {
  const std::size_t n = r.count(8);
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    Posting p{};
    p.doc_id = r.u32();
    p.tf = r.u32();
    out.push_back(p);
  }
}

// The attestations close every entry blob.  `config` is the epoch's own
// config section.  The signed filter's params must equal its Bloom params
// before anything decodes the filter: decompress_bloom sizes its counters
// from them, and a forged entry could otherwise claim 2^32-1 counters
// (16 GiB) in a few bytes.
inline void read_attestations(ByteReader& r, const VerifiableIndexConfig& config,
                              IndexEntry& e) {
  e.attestation = TermAttestation::read(r);
  e.bloom_attestation = BloomAttestation::read(r);
  r.expect_done();
  if (!(e.bloom_attestation.stmt.doc_bloom.params == config.bloom)) {
    throw StoreParamMismatchError("entry's signed Bloom params differ from the epoch config");
  }
}

inline std::shared_ptr<const IndexEntry> read_entry(ByteReader& r,
                                                    const VerifiableIndexConfig& config) {
  auto e = std::make_shared<IndexEntry>();
  read_postings(r, e->postings);
  const IntervalConfig intervals{.interval_size = config.interval_size};
  e->tuple_intervals = IntervalIndex::read(r, intervals);
  e->doc_intervals = IntervalIndex::read(r, intervals);
  read_attestations(r, config, *e);
  return e;
}

// Entry blobs open with a kind byte.  A full blob is the whole entry
// (write_entry); a full record holds only these.  A layered record ships a
// term its base held as a patch against that entry: the postings past
// their common prefix, both interval indexes via IntervalIndex::write_patch,
// and the re-signed attestations.  An update rebuilds only the few
// intervals its postings land in, so a patch is mostly the refreshed middle
// witnesses: roughly a third of the hot terms' full bytes, which dominate a
// Zipf workload's delta.
enum class EntryKind : std::uint8_t { kFull = 0, kPatch = 1 };

inline void write_entry_blob(ByteWriter& w, const IndexEntry& e, const IndexEntry* base) {
  if (base == nullptr) {
    w.u8(static_cast<std::uint8_t>(EntryKind::kFull));
    write_entry(w, e);
    return;
  }
  w.u8(static_cast<std::uint8_t>(EntryKind::kPatch));
  const auto [diverge, unused] = std::mismatch(e.postings.begin(), e.postings.end(),
                                               base->postings.begin(), base->postings.end());
  w.varint(static_cast<std::size_t>(diverge - e.postings.begin()));  // kept base prefix
  write_postings(w, {diverge, e.postings.end()});
  e.tuple_intervals.write_patch(w, base->tuple_intervals);
  e.doc_intervals.write_patch(w, base->doc_intervals);
  e.attestation.write(w);
  e.bloom_attestation.write(w);
}

// The term's entry as the layers below the record being read hold it; null
// when none of them does.
using BaseLookup = std::function<std::shared_ptr<const IndexEntry>(std::string_view term)>;

// `below` is empty for a full record, which has nothing to patch against.
inline std::shared_ptr<const IndexEntry> read_entry_blob(ByteReader& r,
                                                         const VerifiableIndexConfig& config,
                                                         std::string_view term,
                                                         const BaseLookup& below) {
  const std::uint8_t kind = r.u8();
  if (kind == static_cast<std::uint8_t>(EntryKind::kFull)) return read_entry(r, config);
  if (kind != static_cast<std::uint8_t>(EntryKind::kPatch)) {
    throw StoreCorruptError("unknown entry kind " + std::to_string(kind));
  }
  if (!below) {
    throw StoreCorruptError("full record holds a patch for term " + std::string(term));
  }
  std::shared_ptr<const IndexEntry> base = below(term);
  if (base == nullptr) {
    throw StoreChainError("record patches term " + std::string(term) +
                          ", which its base epoch does not hold");
  }
  auto e = std::make_shared<IndexEntry>();
  const std::size_t keep = r.varint();
  if (keep > base->postings.size()) {
    throw StoreCorruptError("patch keeps more postings than its base holds");
  }
  e->postings.assign(base->postings.begin(),
                     base->postings.begin() + static_cast<std::ptrdiff_t>(keep));
  read_postings(r, e->postings);
  e->tuple_intervals = IntervalIndex::read_patch(r, base->tuple_intervals);
  e->doc_intervals = IntervalIndex::read_patch(r, base->doc_intervals);
  read_attestations(r, config, *e);
  return e;
}

// --- prime sections ----------------------------------------------------------
//
// Layout: u64 count | count x u64 sorted keys | count x u64 value offsets
// (relative to the values blob) | values blob (concatenated Bigint
// encodings).  The parallel arrays binary-search without materializing a
// single Bigint.

inline void write_primes(ByteWriter& w,
                         const std::vector<std::pair<std::uint64_t, Bigint>>& entries) {
  w.u64(entries.size());
  for (const auto& [k, v] : entries) w.u64(k);
  ByteWriter values;
  for (const auto& [k, v] : entries) {
    w.u64(values.size());
    v.write(values);
  }
  w.raw(values.data());
}

// Binary-searched view of a prime section inside the mapping.
class MappedPrimeBacking final : public PrimeBacking {
 public:
  MappedPrimeBacking(std::shared_ptr<const MappedFile> file,
                     std::span<const std::uint8_t> section)
      : file_(std::move(file)) {
    ByteReader r(section);
    count_ = r.u64();
    constexpr std::uint64_t kEntryBytes = 16;  // key + offset, u64 each
    if (count_ > (section.size() - sizeof(std::uint64_t)) / kEntryBytes) {
      throw StoreCorruptError("prime section count exceeds section size");
    }
    keys_ = r.raw(count_ * sizeof(std::uint64_t)).data();
    offsets_ = r.raw(count_ * sizeof(std::uint64_t)).data();
    values_ = section.subspan(section.size() - r.remaining());
    for (std::uint64_t i = 0; i < count_; ++i) {
      if (offset_at(i) > values_.size()) {
        throw StoreCorruptError("prime value offset out of range");
      }
      if (i > 0 && key_at(i) <= key_at(i - 1)) {
        throw StoreCorruptError("prime keys not strictly sorted");
      }
    }
  }

  [[nodiscard]] bool lookup(std::uint64_t element, Bigint& out) const override {
    std::uint64_t lo = 0, hi = count_;
    while (lo < hi) {
      std::uint64_t mid = lo + (hi - lo) / 2;
      std::uint64_t k = key_at(mid);
      if (k == element) {
        ByteReader r(values_.subspan(offset_at(mid)));
        out = Bigint::read(r);
        return true;
      }
      if (k < element) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  }

  void for_each(const std::function<void(std::uint64_t, const Bigint&)>& fn) const override {
    for (std::uint64_t i = 0; i < count_; ++i) {
      ByteReader r(values_.subspan(offset_at(i)));
      fn(key_at(i), Bigint::read(r));
    }
  }

 private:
  [[nodiscard]] std::uint64_t key_at(std::uint64_t i) const {
    return load_u64le(keys_ + i * sizeof(std::uint64_t));
  }
  [[nodiscard]] std::uint64_t offset_at(std::uint64_t i) const {
    return load_u64le(offsets_ + i * sizeof(std::uint64_t));
  }

  std::shared_ptr<const MappedFile> file_;  // keeps the mapping alive
  std::uint64_t count_ = 0;
  const std::uint8_t* keys_ = nullptr;
  const std::uint8_t* offsets_ = nullptr;
  std::span<const std::uint8_t> values_;
};

// --- lazy entry source -------------------------------------------------------

struct TermLoc {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

// True when [offset, offset + size) lies inside [0, limit).  Written so no
// sum can wrap: a crafted extent near 2^64 must not slip past the check
// (section CRCs are not authentication — a forged file carries valid ones).
inline bool extent_fits(std::uint64_t offset, std::uint64_t size, std::uint64_t limit) {
  return offset <= limit && size <= limit - offset;
}

// Lazy parse of one record's mapped entries section; `rank` is the term's
// position in the record's term directory, and `below` serves patch blobs
// (read_entry_blob).
class MappedEntrySource {
 public:
  MappedEntrySource(std::shared_ptr<const MappedFile> file, VerifiableIndexConfig config,
                    std::span<const std::uint8_t> entries, std::vector<TermLoc> locs)
      : file_(std::move(file)),
        config_(std::move(config)),
        entries_(entries),
        locs_(std::move(locs)) {}

  [[nodiscard]] std::shared_ptr<const IndexEntry> load(std::size_t rank, std::string_view term,
                                                       const BaseLookup& below) const {
    const TermLoc& loc = locs_[rank];
    ByteReader r(entries_.subspan(loc.offset, loc.size));
    auto entry = read_entry_blob(r, config_, term, below);
    entries_materialized().inc();
    // Cold first touch of a mapped term — the trace attribute is what tells
    // a slow first-query-after-restart apart from a warm one.
    obs::trace_attr("store_lazy_materialize", static_cast<std::int64_t>(loc.size));
    return entry;
  }

  // The term directory records every entry's encoded extent, so the warm
  // budget can be charged without parsing anything.
  [[nodiscard]] std::uint64_t stored_bytes(std::size_t rank) const {
    return locs_[rank].size;
  }

 private:
  std::shared_ptr<const MappedFile> file_;  // keeps the mapping alive
  VerifiableIndexConfig config_;
  std::span<const std::uint8_t> entries_;
  std::vector<TermLoc> locs_;
};

// --- layout parsing ----------------------------------------------------------

struct ParsedLayout {
  std::uint32_t format_version = 0;
  std::uint64_t epoch = 0;
  std::uint32_t shard_count = 0;
  Digest fingerprint{};
  std::uint64_t file_bytes = 0;
  std::vector<SectionInfo> sections;
};

// Validates the header and section table (structure + table CRC + section
// bounds/contiguity) and computes per-section CRC verdicts.  Payload CRC
// mismatches land in SectionInfo::crc_ok rather than throwing so the
// inspect tool can dump a damaged file; the open paths turn them into
// StoreCorruptError.
inline ParsedLayout parse_layout(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderBytes) {
    throw StoreTruncatedError("file smaller than header (" +
                              std::to_string(data.size()) + " bytes)");
  }
  ByteReader r(data.subspan(0, kHeaderBytes));
  auto magic = r.raw(kMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin())) {
    throw StoreCorruptError("bad magic");
  }
  ParsedLayout out;
  out.format_version = r.u32();
  if (out.format_version != kFormatVersion) {
    throw StoreCorruptError("unsupported format version " +
                            std::to_string(out.format_version));
  }
  if (r.u32() != kHeaderBytes) throw StoreCorruptError("bad header size field");
  out.epoch = r.u64();
  out.shard_count = r.u32();
  std::uint32_t section_count = r.u32();
  auto fp = r.raw(out.fingerprint.size());
  std::copy(fp.begin(), fp.end(), out.fingerprint.begin());
  out.file_bytes = r.u64();
  std::uint32_t table_crc = r.u32();

  if (data.size() < out.file_bytes) {
    throw StoreTruncatedError("file is " + std::to_string(data.size()) +
                              " bytes, header claims " + std::to_string(out.file_bytes));
  }
  if (data.size() > out.file_bytes) {
    throw StoreCorruptError("trailing bytes past declared file size");
  }
  std::uint64_t table_bytes = std::uint64_t{section_count} * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > data.size()) {
    throw StoreTruncatedError("section table extends past end of file");
  }
  auto table = data.subspan(kHeaderBytes, table_bytes);
  if (crc32(table) != table_crc) throw StoreCorruptError("section table CRC mismatch");

  ByteReader tr(table);
  std::uint64_t expect_offset = kHeaderBytes + table_bytes;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionInfo s;
    s.id = static_cast<SectionId>(tr.u32());
    s.crc = tr.u32();
    s.offset = tr.u64();
    s.size = tr.u64();
    tr.u64();  // reserved
    if (s.offset != expect_offset) {
      throw StoreCorruptError("section " + std::string(section_name(s.id)) +
                              " not contiguous");
    }
    if (!extent_fits(s.offset, s.size, data.size())) {
      throw StoreTruncatedError("section " + std::string(section_name(s.id)) +
                                " extends past end of file");
    }
    expect_offset = s.offset + s.size;
    s.crc_ok = crc32(data.subspan(s.offset, s.size)) == s.crc;
    out.sections.push_back(s);
  }
  if (expect_offset != data.size()) {
    throw StoreCorruptError("sections do not cover the file");
  }
  return out;
}

inline std::span<const std::uint8_t> section_bytes(std::span<const std::uint8_t> data,
                                                   const ParsedLayout& layout,
                                                   SectionId id) {
  for (const SectionInfo& s : layout.sections) {
    if (s.id == id) return data.subspan(s.offset, s.size);
  }
  throw StoreCorruptError(std::string("missing section ") + section_name(id));
}

// Encodes `payloads` (already in file order) into the header +
// section-table + butt-joined-sections layout.  The caller picks the format
// version (tests forge other ones); everything else — CRCs, offsets, the
// param fingerprint — is derived here.
struct SectionPayload {
  SectionId id;
  const Bytes* bytes;
};

inline Bytes encode_sections(std::uint32_t format_version, std::uint64_t epoch,
                             std::uint32_t shard_count, const Digest& fingerprint,
                             const std::vector<SectionPayload>& payloads) {
  std::uint64_t offset = kHeaderBytes + payloads.size() * kSectionEntryBytes;
  ByteWriter table;
  std::uint64_t total = offset;
  for (const SectionPayload& p : payloads) total += p.bytes->size();
  for (const SectionPayload& p : payloads) {
    table.u32(static_cast<std::uint32_t>(p.id));
    table.u32(crc32(*p.bytes));
    table.u64(offset);
    table.u64(p.bytes->size());
    table.u64(0);  // reserved
    offset += p.bytes->size();
  }

  ByteWriter out;
  out.reserve(total);
  out.raw(kMagic);
  out.u32(format_version);
  out.u32(static_cast<std::uint32_t>(kHeaderBytes));
  out.u64(epoch);
  out.u32(shard_count);
  out.u32(static_cast<std::uint32_t>(payloads.size()));
  out.raw(fingerprint);
  out.u64(total);
  out.u32(crc32(table.data()));
  out.u32(0);  // reserved
  const std::array<std::uint8_t, 16> pad{};
  out.raw(pad);
  if (out.size() != kHeaderBytes) throw StoreError("header size drifted from kHeaderBytes");
  out.raw(table.data());
  for (const SectionPayload& p : payloads) out.raw(*p.bytes);
  return std::move(out).take();
}

// --- records -----------------------------------------------------------------

// One validated, opened record: the layer EpochStore stacks.  Its views
// keep the mapping alive through `file`; entries parse lazily via `entries`
// (rank is the position in `terms`).
struct Record {
  std::uint64_t epoch = 0;
  std::uint64_t base_epoch = 0;  // 0: a full record, the bottom of every stack
  std::uint32_t shard_count = 0;
  std::size_t max_posting_count = 0;  // whole-index max at `epoch`
  std::uint64_t entries_bytes = 0;    // size of the entries section
  VerifiableIndexConfig config;
  Digest fingerprint{};
  std::shared_ptr<const DictionaryIntervals> dict;          // null: unchanged
  std::shared_ptr<const DictAttestation> dict_attestation;  // null: unchanged
  std::vector<std::string> terms;                           // sorted
  std::shared_ptr<const MappedEntrySource> entries;
  std::vector<std::string> removed;  // sorted
  std::shared_ptr<const PrimeBacking> tuple_primes;
  std::shared_ptr<const PrimeBacking> doc_primes;
  // Tiered full records: the lazy mapped tier and the fixed-base table,
  // both absent when a tier section failed its CRC (`tier_degraded`).
  std::shared_ptr<const WitnessTier> tier;
  std::optional<FixedBaseSnapshot> fixed_base;
  bool tier_degraded = false;
  std::shared_ptr<const MappedFile> file;
};

// Validates one record (every invariant open_snapshot lists) and returns
// its lazy views.
Record open_record(std::shared_ptr<const MappedFile> file);

// Stacks `layers` (a full record first, then each record layered on the one
// before it) into one lazy snapshot at the last layer's epoch.  Every layer
// must carry the head's param fingerprint.  Per-term lookups dispatch to the
// newest layer holding the term; a patch applies over the term's version in
// the layers below it.
OpenedEpoch stack_records(std::vector<Record> layers);

}  // namespace vc::store::detail
