// On-disk format of a persisted epoch (docs/PERSISTENCE.md).
//
// One file per epoch, `snapshot.vcs`, inside its per-epoch directory:
//
//   [ header          | kHeaderBytes, fixed-width little-endian ]
//   [ section table   | section_count × kSectionEntryBytes      ]
//   [ section 0 bytes | ...                                     ]
//   [ section 1 bytes | ...  (contiguous, no padding)           ]
//
// Sections are butt-joined so that every byte after the table is covered by
// exactly one per-section CRC — a flipped bit anywhere in the payload is
// caught at open.  The header carries its own CRC over the section table,
// and the param fingerprint (SHA-256 of the canonical config encoding) must
// match the config section, so a header transplanted from another store is
// rejected before any payload is trusted.
//
// Format stability: readers reject any file whose magic or format_version
// they do not know.  A snapshot is version 1: the base sections (1–6),
// optionally followed by all three witness-tier sections (7–9) — a file
// carries the whole tier or none of it.  Version 2 (an earlier tiered
// layout) is not read; such stores must be rebuilt.
//
// Format v3 is a *delta record* (`delta.vcd`): not a snapshot but a journal
// entry of one committed mutation — the touched terms' re-signed entries,
// the removed terms, the prime representatives the new postings introduced,
// and the dictionary when it changed — chained to a predecessor epoch via
// `base_epoch` in its meta section.  A delta file reuses the snapshot's
// header, section-table and CRC machinery wholesale (sections 10–16) so the
// same parse_layout validates it; it must never contain base-snapshot or
// tier sections, and CURRENT may point at a delta whose chain resolves
// through earlier deltas down to a full snapshot.
#pragma once

#include <array>
#include <cstdint>

#include "support/errors.hpp"

namespace vc::store {

// --- errors ------------------------------------------------------------------
// Each rejection class is a distinct type so operators (and the corruption
// tests) can tell a torn write from a parameter mix-up from a stale pointer.

// Base for every epoch-store failure.
class StoreError : public Error {
 public:
  explicit StoreError(const std::string& what) : Error("store: " + what) {}
};

// Checksum or structural mismatch inside an epoch file (bit rot, torn
// write, transplanted header).
class StoreCorruptError : public StoreError {
 public:
  explicit StoreCorruptError(const std::string& what)
      : StoreError("corrupt epoch: " + what) {}
};

// The file is shorter than its header claims (interrupted write that
// somehow bypassed the atomic-rename protocol, or external truncation).
class StoreTruncatedError : public StoreError {
 public:
  explicit StoreTruncatedError(const std::string& what)
      : StoreError("truncated epoch: " + what) {}
};

// The epoch was written under different index/crypto parameters than the
// caller (or the file's own config section) expects.
class StoreParamMismatchError : public StoreError {
 public:
  explicit StoreParamMismatchError(const std::string& what)
      : StoreError("param fingerprint mismatch: " + what) {}
};

// The CURRENT pointer is missing, malformed, or names an epoch directory
// that does not exist (stale pointer surviving a partial cleanup).
class StoreCurrentError : public StoreError {
 public:
  explicit StoreCurrentError(const std::string& what)
      : StoreError("CURRENT pointer: " + what) {}
};

// A delta chain cannot be resolved to a full snapshot: a delta's base epoch
// is missing from the store, the chain does not strictly descend, or it
// exceeds the resolution length cap.
class StoreChainError : public StoreError {
 public:
  explicit StoreChainError(const std::string& what)
      : StoreError("delta chain: " + what) {}
};

// --- layout constants --------------------------------------------------------

// "VCEPOCH3": the config section has no Miller–Rabin round count and
// interval-tree blobs carry no copy of the epoch config.  Stores written
// under an earlier magic ("VCEPOCH1", "VCEPOCH2") fail the magic check and
// must be rebuilt.
inline constexpr std::array<std::uint8_t, 8> kMagic = {'V', 'C', 'E', 'P',
                                                       'O', 'C', 'H', '3'};
inline constexpr std::uint32_t kFormatVersion = 1;       // snapshot, tiered or not
inline constexpr std::uint32_t kFormatVersionDelta = 3;  // delta record (journal entry)
inline constexpr std::size_t kHeaderBytes = 96;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kFingerprintOffset = 32;  // 32-byte SHA-256 digest

// Section identifiers.  Order in the file follows this enumeration.
enum class SectionId : std::uint32_t {
  kConfig = 1,       // VerifiableIndexConfig, canonical encoding
  kDictionary = 2,   // DictionaryIntervals + DictAttestation
  kTermDirectory = 3,  // max_posting_count + per-term (name, offset, size)
  kEntries = 4,      // concatenated per-term entry blobs (lazy-parsed)
  kTuplePrimes = 5,  // sorted (u64 key, prime) arrays for binary search
  kDocPrimes = 6,
  // Optional witness tier (all three or none):
  kWitnessTierDir = 7,  // total bytes + per-term (name, offset, size) into 8
  kWitnessTables = 8,   // concatenated TermWitnessTable blobs (lazy-parsed)
  kFixedBase = 9,       // public-side BGMW fixed-base table for g
  // Format v3 only (delta records; kConfig rides along for the fingerprint):
  kDeltaMeta = 10,           // base_epoch + max_posting_count + dict flag
  kDeltaTermDirectory = 11,  // per touched term (name, offset, size) into 12
  kDeltaEntries = 12,        // concatenated re-signed entry blobs (lazy-parsed)
  kDeltaRemoved = 13,        // terms whose posting lists emptied out
  kDeltaDictionary = 14,     // rebuilt dictionary + attestation (empty if unchanged)
  kDeltaTuplePrimes = 15,    // representatives introduced by the new postings
  kDeltaDocPrimes = 16,
};

inline const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kConfig: return "config";
    case SectionId::kDictionary: return "dictionary";
    case SectionId::kTermDirectory: return "term-directory";
    case SectionId::kEntries: return "entries";
    case SectionId::kTuplePrimes: return "tuple-primes";
    case SectionId::kDocPrimes: return "doc-primes";
    case SectionId::kWitnessTierDir: return "witness-tier-dir";
    case SectionId::kWitnessTables: return "witness-tables";
    case SectionId::kFixedBase: return "fixed-base";
    case SectionId::kDeltaMeta: return "delta-meta";
    case SectionId::kDeltaTermDirectory: return "delta-term-directory";
    case SectionId::kDeltaEntries: return "delta-entries";
    case SectionId::kDeltaRemoved: return "delta-removed";
    case SectionId::kDeltaDictionary: return "delta-dictionary";
    case SectionId::kDeltaTuplePrimes: return "delta-tuple-primes";
    case SectionId::kDeltaDocPrimes: return "delta-doc-primes";
  }
  return "unknown";
}

// The witness-tier sections; a snapshot holds all of them or none.
inline bool is_tier_section(SectionId id) {
  return id == SectionId::kWitnessTierDir || id == SectionId::kWitnessTables ||
         id == SectionId::kFixedBase;
}

// The sections exclusive to format-v3 delta records; a snapshot file must
// not contain any of them and a delta file must contain all of them.
inline bool is_delta_section(SectionId id) {
  return static_cast<std::uint32_t>(id) >= static_cast<std::uint32_t>(SectionId::kDeltaMeta) &&
         static_cast<std::uint32_t>(id) <= static_cast<std::uint32_t>(SectionId::kDeltaDocPrimes);
}

}  // namespace vc::store
