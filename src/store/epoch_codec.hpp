// Serialization of epoch records to/from the epoch-file layout (format.hpp).
//
// One codec for every epoch file.  encode_epoch() flattens an IndexDelta —
// the touched terms' entries, the removed terms, the dictionary when it
// changed and the prime representatives the record introduces — into one
// self-describing buffer.  A snapshot is the record with no base: every
// term touched, the whole dictionary and both prime caches.
//
// Opening is deliberately NOT a full parse: it validates the header,
// section CRCs and param fingerprint, eagerly decodes only the small
// sections (config, meta, dictionary, term directory, removed terms), and
// hands back a lazy IndexSnapshot whose per-term entries and prime
// representatives materialize from the mapping on first touch.  Cold-start
// cost is therefore O(terms) string table + O(touched terms) entry parses,
// not O(index bytes).  A chain of records (EpochStore) opens the same way,
// stacked from its full record up.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "hash/sha256.hpp"
#include "store/format.hpp"
#include "store/mapped_file.hpp"
#include "vindex/index_builder.hpp"
#include "vindex/witness_tier.hpp"

namespace vc::store {

// SHA-256 of the canonical VerifiableIndexConfig encoding; stamped into the
// header so mixing epochs across parameter sets fails before any payload
// parse.
Digest param_fingerprint(const VerifiableIndexConfig& config);

// Publish-time witness-tier payloads riding along with a full record,
// written as its optional tier sections; a null tier writes none of them,
// so the file is byte-identical to an untiered publish.
struct TierArtifacts {
  std::shared_ptr<const WitnessTier> tier;
  FixedBaseSnapshot fixed_base;
};

// Serializes `snap` as a full record (base epoch 0): every term as a full
// blob, the dictionary, both prime caches, and `tier`'s sections when
// given.  `shard_count` is legacy header metadata: it is stored and
// reported but nothing reads it back to decide how to serve (the serving
// core has no shards).
Bytes encode_epoch(const IndexSnapshot& snap, std::uint32_t shard_count,
                   const TierArtifacts* tier = nullptr);

// Serializes `delta` as a record layered on `delta.base_epoch` (which must
// be nonzero and precede its epoch): every touched term with an entry in
// `delta.bases` ships as a patch against it, the rest in full.
Bytes encode_epoch(const IndexDelta& delta, std::uint32_t shard_count);

// A validated, opened epoch.  The snapshot holds the mapping alive through
// shared_ptr, so the OpenedEpoch struct itself may be discarded.
struct OpenedEpoch {
  SnapshotPtr snapshot;
  std::uint32_t shard_count = 0;
  std::shared_ptr<const MappedFile> file;  // the full record's
  // Tiered full records only: the lazy mapped witness tier (already
  // attached to the snapshot; terms a layer above touched or removed are
  // dropped) and the persisted fixed-base table for the serving context to
  // adopt instead of rebuilding.
  std::shared_ptr<const WitnessTier> tier;
  std::optional<FixedBaseSnapshot> fixed_base;
  // True when a tier section failed its CRC and the epoch opened untiered.
  bool tier_degraded = false;
  // Chain provenance: the full record the stack starts from and the number
  // of layered records on top of it.  A full record opened on its own has
  // base_epoch == snapshot->epoch() and chain_length == 0.
  std::uint64_t base_epoch = 0;
  std::uint32_t chain_length = 0;
};

// Opens a full record on its own, validating every structural invariant
// (magic, version, size, table CRC, section bounds, per-section CRCs,
// fingerprint-vs-config, section coherence); throws the distinct
// StoreError subclasses on rejection.  A layered record throws
// StoreChainError: only its store (EpochStore::open_*) can stack it over
// its base.  A tier section that fails its CRC does not fail the open: the
// tier is a cache over the base sections, so the epoch opens untiered
// (proofs come from the compute path, byte-identical) with `tier_degraded`
// set.
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
  // From intact sections: the base epoch (0 for a full record), the term
  // directory's and the removed list's term counts, and for tiered records
  // the tiered term count and the total witness-table bytes.
  std::uint64_t base_epoch = 0;
  std::uint64_t terms = 0;
  std::uint64_t removed_terms = 0;
  std::uint64_t tier_terms = 0;
  std::uint64_t tier_table_bytes = 0;
};
StoreFileInfo inspect_file(const MappedFile& file);

}  // namespace vc::store
