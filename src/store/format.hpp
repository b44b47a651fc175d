// On-disk format of a persisted epoch (docs/PERSISTENCE.md).
//
// Every epoch file is one *record*, `snapshot.vcs` or `delta.vcd` inside its
// per-epoch directory:
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
// A record holds the terms its epoch changed over the record it layers on:
// the meta section names that `base_epoch`.  A full record (`snapshot.vcs`,
// base epoch 0) is the layer with no base: it holds every term as a full
// blob, the dictionary, and optionally the three witness-tier sections (all
// or none).  A layered record (`delta.vcd`) holds its touched terms as full
// or patch blobs over the term's entry below it, the removed terms, and the
// dictionary only when it changed.  Readers stack a chain of records from
// the full one up.
//
// Format stability: readers reject any file whose magic or format_version
// they do not know; there is one format version.
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

// A chain of records cannot be stacked on a full record: a record's base
// epoch is missing from the store, the chain does not strictly descend, it
// exceeds the resolution length cap, or a layered record is opened on its
// own.
class StoreChainError : public StoreError {
 public:
  explicit StoreChainError(const std::string& what)
      : StoreError("delta chain: " + what) {}
};

// --- layout constants --------------------------------------------------------

// "VCEPOCH4": snapshots and deltas share one record layout.  Stores
// written under an earlier magic ("VCEPOCH1" to "VCEPOCH3") fail the magic
// check and must be rebuilt.
inline constexpr std::array<std::uint8_t, 8> kMagic = {'V', 'C', 'E', 'P',
                                                       'O', 'C', 'H', '4'};
// Version 2 stores each interval's middle-layer prime counter in place of
// the prime (version 1); a version-1 record fails the version check and
// its store must be rebuilt.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderBytes = 96;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kFingerprintOffset = 32;  // 32-byte SHA-256 digest

// Section identifiers.  Order in the file follows this enumeration.
enum class SectionId : std::uint32_t {
  kConfig = 1,         // VerifiableIndexConfig, canonical encoding
  kMeta = 2,           // base_epoch + max_posting_count + dictionary flag
  kDictionary = 3,     // DictionaryIntervals + DictAttestation (empty if unchanged)
  kTermDirectory = 4,  // per term (name, offset, size) into kEntries
  kEntries = 5,        // concatenated kind-prefixed entry blobs (lazy-parsed)
  kRemoved = 6,        // terms whose posting lists emptied out
  kTuplePrimes = 7,    // sorted (u64 key, prime) arrays for binary search
  kDocPrimes = 8,
  // Optional witness tier, full records only (all three or none):
  kWitnessTierDir = 9,   // total bytes + per-term (name, offset, size) into 10
  kWitnessTables = 10,   // concatenated TermWitnessTable blobs (lazy-parsed)
  kFixedBase = 11,       // public-side BGMW fixed-base table for g
};

inline const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kConfig: return "config";
    case SectionId::kMeta: return "meta";
    case SectionId::kDictionary: return "dictionary";
    case SectionId::kTermDirectory: return "term-directory";
    case SectionId::kEntries: return "entries";
    case SectionId::kRemoved: return "removed";
    case SectionId::kTuplePrimes: return "tuple-primes";
    case SectionId::kDocPrimes: return "doc-primes";
    case SectionId::kWitnessTierDir: return "witness-tier-dir";
    case SectionId::kWitnessTables: return "witness-tables";
    case SectionId::kFixedBase: return "fixed-base";
  }
  return "unknown";
}

// The witness-tier sections; a full record holds all of them or none.
inline bool is_tier_section(SectionId id) {
  return id == SectionId::kWitnessTierDir || id == SectionId::kWitnessTables ||
         id == SectionId::kFixedBase;
}

}  // namespace vc::store
