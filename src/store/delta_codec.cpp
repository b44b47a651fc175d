#include "store/delta_codec.hpp"

#include <algorithm>

#include "store/codec_detail.hpp"

namespace vc::store {

namespace {

using detail::MappedEntrySource;
using detail::MappedPrimeBacking;
using detail::ParsedLayout;
using detail::TermLoc;

}  // namespace

Bytes encode_delta(const IndexDelta& delta, std::uint32_t shard_count) {
  if (delta.base_epoch == 0 || delta.base_epoch >= delta.epoch) {
    throw StoreError("delta base epoch " + std::to_string(delta.base_epoch) +
                     " does not precede epoch " + std::to_string(delta.epoch));
  }
  ByteWriter config_w;
  delta.config.write(config_w);

  ByteWriter meta_w;
  meta_w.u64(delta.base_epoch);
  meta_w.u64(delta.max_posting_count);
  meta_w.u8(delta.dict_changed ? 1 : 0);

  ByteWriter entries_w;
  ByteWriter termdir_w;
  termdir_w.varint(delta.touched.size());
  for (const auto& [term, entry] : delta.touched) {
    if (entry == nullptr) throw StoreError("delta entry missing for term " + term);
    std::size_t start = entries_w.size();
    auto base = delta.bases.find(term);
    detail::write_delta_entry(entries_w, *entry,
                              base == delta.bases.end() ? nullptr : base->second.get());
    termdir_w.str(term);
    termdir_w.varint(start);
    termdir_w.varint(entries_w.size() - start);
  }

  ByteWriter removed_w;
  removed_w.varint(delta.removed.size());
  for (const std::string& term : delta.removed) removed_w.str(term);

  ByteWriter dict_w;
  if (delta.dict_changed) {
    if (delta.dict == nullptr || delta.dict_attestation == nullptr) {
      throw StoreError("delta marks the dictionary changed but carries none");
    }
    delta.dict->write(dict_w);
    delta.dict_attestation->write(dict_w);
  }

  ByteWriter tuple_w;
  detail::write_primes(tuple_w, delta.tuple_primes);
  ByteWriter doc_w;
  detail::write_primes(doc_w, delta.doc_primes);

  std::vector<detail::SectionPayload> payloads = {
      {SectionId::kConfig, &config_w.data()},
      {SectionId::kDeltaMeta, &meta_w.data()},
      {SectionId::kDeltaTermDirectory, &termdir_w.data()},
      {SectionId::kDeltaEntries, &entries_w.data()},
      {SectionId::kDeltaRemoved, &removed_w.data()},
      {SectionId::kDeltaDictionary, &dict_w.data()},
      {SectionId::kDeltaTuplePrimes, &tuple_w.data()},
      {SectionId::kDeltaDocPrimes, &doc_w.data()},
  };
  return detail::encode_sections(kFormatVersionDelta, delta.epoch, shard_count,
                                 param_fingerprint(delta.config), payloads);
}

OpenedDelta open_delta(std::shared_ptr<const MappedFile> file) {
  auto data = file->bytes();
  ParsedLayout layout = detail::parse_layout(data);
  if (layout.format_version != kFormatVersionDelta) {
    throw StoreCorruptError("file is not a delta record (format version " +
                            std::to_string(layout.format_version) + ")");
  }
  for (const SectionInfo& s : layout.sections) {
    if (s.id != SectionId::kConfig && !is_delta_section(s.id)) {
      throw StoreCorruptError(std::string("delta record contains snapshot section ") +
                              section_name(s.id));
    }
    if (!s.crc_ok) {
      detail::crc_failures().inc();
      throw StoreCorruptError(std::string("section ") + section_name(s.id) +
                              " CRC mismatch");
    }
  }

  OpenedDelta out;
  out.config = detail::read_config(detail::section_bytes(data, layout, SectionId::kConfig),
                                   layout.fingerprint);
  out.epoch = layout.epoch;
  out.shard_count = layout.shard_count;
  out.fingerprint = layout.fingerprint;

  ByteReader meta_r(detail::section_bytes(data, layout, SectionId::kDeltaMeta));
  out.base_epoch = meta_r.u64();
  out.max_posting_count = static_cast<std::size_t>(meta_r.u64());
  out.dict_changed = meta_r.u8() != 0;
  meta_r.expect_done();
  if (out.base_epoch == 0 || out.base_epoch >= out.epoch) {
    throw StoreCorruptError("delta base epoch " + std::to_string(out.base_epoch) +
                            " does not precede epoch " + std::to_string(out.epoch));
  }

  auto entries_sec = detail::section_bytes(data, layout, SectionId::kDeltaEntries);
  out.entries_bytes = entries_sec.size();
  ByteReader td(detail::section_bytes(data, layout, SectionId::kDeltaTermDirectory));
  const std::size_t touched = td.count(3);  // name, offset, size: a byte each at least
  std::vector<TermLoc> locs;
  out.touched_terms.reserve(touched);
  locs.reserve(touched);
  for (std::size_t i = 0; i < touched; ++i) {
    out.touched_terms.push_back(td.str());
    TermLoc loc{.offset = td.varint(), .size = td.varint()};
    if (!detail::extent_fits(loc.offset, loc.size, entries_sec.size())) {
      throw StoreCorruptError("delta term directory points past entries section");
    }
    if (i > 0 && out.touched_terms[i] <= out.touched_terms[i - 1]) {
      throw StoreCorruptError("delta touched terms not strictly sorted");
    }
    locs.push_back(loc);
  }
  td.expect_done();
  out.source = std::make_shared<const MappedEntrySource>(file, out.config, entries_sec,
                                                         std::move(locs), /*delta_blobs=*/true);

  ByteReader rm(detail::section_bytes(data, layout, SectionId::kDeltaRemoved));
  const std::size_t removed = rm.count(1);
  out.removed_terms.reserve(removed);
  for (std::size_t i = 0; i < removed; ++i) {
    out.removed_terms.push_back(rm.str());
    if (i > 0 && out.removed_terms[i] <= out.removed_terms[i - 1]) {
      throw StoreCorruptError("delta removed terms not strictly sorted");
    }
  }
  rm.expect_done();

  auto dict_sec = detail::section_bytes(data, layout, SectionId::kDeltaDictionary);
  if (out.dict_changed) {
    ByteReader dict_r(dict_sec);
    out.dict = std::make_shared<const DictionaryIntervals>(DictionaryIntervals::read(dict_r));
    out.dict_attestation =
        std::make_shared<const DictAttestation>(DictAttestation::read(dict_r));
    dict_r.expect_done();
  } else if (!dict_sec.empty()) {
    throw StoreCorruptError("delta carries a dictionary but meta marks it unchanged");
  }

  out.tuple_primes = std::make_shared<const MappedPrimeBacking>(
      file, detail::section_bytes(data, layout, SectionId::kDeltaTuplePrimes));
  out.doc_primes = std::make_shared<const MappedPrimeBacking>(
      file, detail::section_bytes(data, layout, SectionId::kDeltaDocPrimes));
  out.file = std::move(file);
  return out;
}

}  // namespace vc::store
