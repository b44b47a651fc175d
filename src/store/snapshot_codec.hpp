// Serialization of IndexSnapshot to/from the epoch-file layout (format.hpp).
//
// encode_snapshot() flattens a frozen snapshot — per-term entries, the
// dictionary gap structure, both prime caches — into one self-describing
// buffer.  open_snapshot() is the other direction, but deliberately NOT a
// full parse: it validates the header, section CRCs and param fingerprint,
// eagerly decodes only the small sections (config, dictionary, term
// directory), and hands back a lazy IndexSnapshot whose per-term entries
// and prime representatives materialize from the mapping on first touch.
// Cold-start cost is therefore O(terms) string table + O(touched terms)
// entry parses, not O(index bytes).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "hash/sha256.hpp"
#include "store/format.hpp"
#include "store/mapped_file.hpp"
#include "vindex/index_snapshot.hpp"
#include "vindex/witness_tier.hpp"

namespace vc::store {

// SHA-256 of the canonical VerifiableIndexConfig encoding; stamped into the
// header so mixing epochs across parameter sets fails before any payload
// parse.
Digest param_fingerprint(const VerifiableIndexConfig& config);

// Publish-time witness-tier payloads riding along with a snapshot, written
// as its optional sections 7–9; a null tier writes none of them, so the
// file is byte-identical to an untiered publish.
struct TierArtifacts {
  std::shared_ptr<const WitnessTier> tier;
  FixedBaseSnapshot fixed_base;
};

// Serializes `snap` into the epoch-file byte layout.  `shard_count` is
// legacy header metadata: it is stored and reported but nothing reads it
// back to decide how to serve (the serving core has no shards).
Bytes encode_snapshot(const IndexSnapshot& snap, std::uint32_t shard_count,
                      const TierArtifacts* tier = nullptr);

// A validated, opened epoch.  The snapshot holds the mapping alive through
// shared_ptr, so the OpenedEpoch struct itself may be discarded.
struct OpenedEpoch {
  SnapshotPtr snapshot;
  std::uint32_t shard_count = 0;
  std::shared_ptr<const MappedFile> file;
  // Tiered files only: the lazy mapped witness tier (already attached to
  // the snapshot) and the persisted fixed-base table for the serving
  // context to adopt instead of rebuilding.
  std::shared_ptr<const WitnessTier> tier;
  std::optional<FixedBaseSnapshot> fixed_base;
  // True when a tier section failed its CRC and the epoch opened untiered.
  bool tier_degraded = false;
  // Entries-section bytes of every layer the snapshot was resolved from;
  // the snapshot's max_posting_count is at most a posting per 8 of them.
  std::uint64_t entries_bytes = 0;
  // Chain provenance (EpochStore::open_*): the full snapshot the resolution
  // bottomed out at and the number of delta records applied on top of it.
  // A directly opened snapshot file has base_epoch == snapshot->epoch() and
  // chain_length == 0.
  std::uint64_t base_epoch = 0;
  std::uint32_t chain_length = 0;
};

// Validates every structural invariant (magic, version, size, table CRC,
// section bounds, per-section CRCs, fingerprint-vs-config) and returns the
// lazy snapshot.  Throws the distinct StoreError subclasses on rejection.
// A tier section that fails its CRC does not fail the open: the tier is a
// cache over the base sections, so the epoch opens untiered (proofs come
// from the compute path, byte-identical) with `tier_degraded` set.
OpenedEpoch open_snapshot(std::shared_ptr<const MappedFile> file);

// Header/section dump for tooling (vcsearch-inspect).  Checks structure and
// CRCs but never decodes payloads; `crc_ok` is per-section.
struct SectionInfo {
  SectionId id{};
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
};
struct StoreFileInfo {
  std::uint32_t format_version = 0;
  std::uint64_t epoch = 0;
  std::uint32_t shard_count = 0;
  Digest param_fingerprint{};
  std::uint64_t file_bytes = 0;
  std::vector<SectionInfo> sections;
  // Tiered files with an intact tier directory: tiered term count and the
  // total encoded witness-table bytes it declares.
  std::uint64_t tier_terms = 0;
  std::uint64_t tier_table_bytes = 0;
  // v3 delta records with intact meta/directory sections: the chain
  // predecessor and the per-record touched/removed term counts.
  std::uint64_t delta_base_epoch = 0;
  std::uint64_t delta_touched_terms = 0;
  std::uint64_t delta_removed_terms = 0;
};
StoreFileInfo inspect_file(const MappedFile& file);

}  // namespace vc::store
