// Serialization of IndexDelta to/from the format-v3 delta record
// (format.hpp): one journal entry per committed mutation, chained to its
// predecessor epoch via base_epoch.
//
// A delta record reuses the snapshot file's header/section/CRC machinery
// wholesale; encode_delta() writes sections 1 (config — the param
// fingerprint rides on it exactly as in snapshots) and 10–16, and
// open_delta() validates the same structural invariants before handing back
// lazy views: touched entries materialize from the mapping on first load,
// the per-delta prime sections binary-search in place.  Chain *resolution*
// — stacking deltas over a base snapshot into a serving overlay — lives in
// EpochStore (epoch_store.cpp); this codec only reads and writes single
// records.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "store/snapshot_codec.hpp"
#include "vindex/index_builder.hpp"

namespace vc::store {

// Serializes one delta record into the epoch-file byte layout (v3).
Bytes encode_delta(const IndexDelta& delta, std::uint32_t shard_count);

// A delta's touched entries, parsed lazily from the mapping.  An entry the
// delta ships as a patch needs the term's entry at the base epoch: `base`
// returns it (null when the base epoch does not hold the term).  The plain
// EntrySource::load passes no base, so it serves full entries only and
// throws StoreChainError on a patch.
class DeltaEntrySource : public EntrySource {
 public:
  using BaseLookup = std::function<std::shared_ptr<const IndexEntry>(std::string_view term)>;

  [[nodiscard]] virtual std::shared_ptr<const IndexEntry> load_over(
      std::size_t rank, std::string_view term, const BaseLookup& base) const = 0;
  [[nodiscard]] std::shared_ptr<const IndexEntry> load(std::size_t rank,
                                                       std::string_view term) const override {
    return load_over(rank, term, nullptr);
  }
};

// A validated, opened delta record.  All views keep the mapping alive
// through `file`; touched entries parse lazily via `source` (rank is the
// position in `touched_terms`).
struct OpenedDelta {
  std::uint64_t epoch = 0;
  std::uint64_t base_epoch = 0;
  std::uint32_t shard_count = 0;
  std::size_t max_posting_count = 0;  // whole-index max at `epoch`
  std::uint64_t entries_bytes = 0;    // size of the delta-entries section
  VerifiableIndexConfig config;
  Digest fingerprint{};
  bool dict_changed = false;
  std::shared_ptr<const DictionaryIntervals> dict;          // when dict_changed
  std::shared_ptr<const DictAttestation> dict_attestation;  // when dict_changed
  std::vector<std::string> touched_terms;  // sorted
  std::shared_ptr<const DeltaEntrySource> source;
  std::vector<std::string> removed_terms;  // sorted
  std::shared_ptr<const PrimeBacking> tuple_primes;
  std::shared_ptr<const PrimeBacking> doc_primes;
  std::shared_ptr<const MappedFile> file;
};

// Validates a delta record (magic, version, table CRC, per-section CRCs,
// fingerprint-vs-config, section coherence) and returns the lazy views.
// Throws the StoreError subclasses on rejection; delta sections get no
// degrade path — a damaged journal entry fails the open (the tier-cache
// argument does not apply: every delta byte is data).
OpenedDelta open_delta(std::shared_ptr<const MappedFile> file);

}  // namespace vc::store
