// Publish-time materialized witness tiers (ROADMAP: "witness tiers").
//
// The batch engine (accumulator/batch_witness.hpp) computes every
// per-element membership witness of a term's sets in one sweep — work the
// online prover otherwise redoes one full-width modexp at a time.
// A WitnessTier materializes that sweep for a hot subset of terms at publish
// time: per-term tables of per-element witnesses for the flat tuple/doc sets
// and per-member chats for every interval of the two interval trees.  Online,
// a tiered membership witness is then a binary-searched lookup (singleton
// subsets: zero modexp) or a Shamir aggregation over rep-width coefficients
// (small subsets) — never a full-width exponentiation over the complement
// product.  Witness values are unique residues mod n, so tiered proofs are
// byte-identical to computed ones; the tier is purely a latency structure
// and misses fall back to the compute path.
//
// Tiers ride inside the epoch store (store/epoch_codec.hpp, a full
// record's optional tier sections) as checksummed mmap'd sections and re-attach lazily on cold
// restart; hotness comes from an explicit term list, else document
// frequency, greedily packed under a byte budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "vindex/index_snapshot.hpp"

namespace vc {

// One sorted (key → witness) table; keys are the element encodings the
// proof paths already use (encode_tuple / encode_doc / interval members).
struct WitnessSubTable {
  std::vector<std::uint64_t> keys;  // strictly increasing
  std::vector<Bigint> witnesses;    // parallel to keys

  [[nodiscard]] const Bigint* lookup(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return keys.size(); }

  void write(ByteWriter& w) const;
  static WitnessSubTable read(ByteReader& r);
};

// All materialized witnesses for one term.  The flat tables hold each
// element's witness against the full flat set (g^(u/p_i)); the interval
// tables hold each member's chat against its home interval's accumulator.
struct TermWitnessTable {
  WitnessSubTable flat_tuple;      // key = InvertedIndex::encode_tuple
  WitnessSubTable flat_doc;        // key = InvertedIndex::encode_doc
  WitnessSubTable interval_tuple;  // key = interval member value
  WitnessSubTable interval_doc;
  std::uint64_t byte_size = 0;     // encoded size (budget accounting / metrics)

  void write(ByteWriter& w) const;
  static TermWitnessTable read(ByteReader& r);
};

// Materializes one tiered term's table on first touch.  The store implements
// this over the mmap'd witness-table section so a cold restart parses only
// the tiered terms queries actually reach — and never recomputes a witness.
class TierSource {
 public:
  virtual ~TierSource() = default;
  // `rank` is the term's position in the tier's sorted term list.
  [[nodiscard]] virtual std::shared_ptr<const TermWitnessTable> load(
      std::size_t rank, std::string_view term) const = 0;
};

// The per-epoch tier: an immutable sorted term → table map, eager when built
// at publish time, lazily materialized (call_once per term, like the
// snapshot's entry slots) when re-attached from a mapped epoch file.
class WitnessTier {
 public:
  using TableMap =
      std::map<std::string, std::shared_ptr<const TermWitnessTable>, std::less<>>;

  // Eager (publish-time) tier.
  explicit WitnessTier(TableMap tables);
  // Lazy (store-backed) tier; `table_bytes` comes from the tier directory.
  WitnessTier(std::vector<std::string> terms, std::shared_ptr<const TierSource> source,
              std::uint64_t table_bytes);

  // Null when `term` is not tiered.  Thread-safe; lazy tables materialize on
  // first touch and are shared by every later call.
  [[nodiscard]] const TermWitnessTable* find(std::string_view term) const;

  // Pre-materializes `term`'s table off the query path (CloudService's warm
  // stage calls this for the boot epoch and every published one), so the
  // first query on the epoch pays a plain lookup instead of the cold
  // call_once decode.  Returns the table's encoded bytes (0 when the term
  // is not tiered).  Subsequent find() calls served from a warmed slot
  // count into vc_warm_hits_total.
  std::uint64_t warm(std::string_view term) const;

  [[nodiscard]] std::size_t term_count() const { return terms_.size(); }
  [[nodiscard]] const std::vector<std::string>& terms() const { return terms_; }
  [[nodiscard]] std::uint64_t table_bytes() const { return table_bytes_; }

 private:
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const TermWitnessTable> table;
    std::atomic<bool> warmed{false};  // filled by warm(), read by find()
  };

  [[nodiscard]] const TermWitnessTable* materialize(std::size_t rank) const;

  std::vector<std::string> terms_;  // sorted
  std::vector<std::shared_ptr<const TermWitnessTable>> tables_;  // eager mode
  std::shared_ptr<const TierSource> source_;                     // lazy mode
  mutable std::unique_ptr<Slot[]> slots_;
  std::uint64_t table_bytes_ = 0;
};

// --- online fast path --------------------------------------------------------

// Serves g^(Π reps(set \ subset)) for a sorted `subset` of a set of
// `set_size` elements from per-element witnesses, or nullopt when the table
// misses a key or the Shamir aggregation would cost more than the direct
// complement exponentiation (large subsets).  The value returned is the
// unique witness residue — byte-identical to the compute path.
[[nodiscard]] std::optional<Bigint> tiered_subset_witness(
    const AccumulatorContext& ctx, const WitnessSubTable& table,
    std::span<const std::uint64_t> subset, std::size_t set_size, PrimeCache& primes);

// --- hotness policy + builder ------------------------------------------------

struct TierPolicy {
  // Explicit winners in priority order (normalized index terms); when
  // non-empty it overrides the document-frequency ranking.
  std::vector<std::string> hot_terms;
  // Consider only the K hottest candidates (0 = all; the budget still caps).
  std::size_t top_k = 0;
  // Byte cap over fixed-base table + witness tables, greedy by hotness.
  std::uint64_t budget_bytes = std::numeric_limits<std::uint64_t>::max();
};

// Canonical encoding of a public-side fixed-base table (the epoch store's
// fixed-base section payload).
void write_fixed_base(ByteWriter& w, const FixedBaseSnapshot& snap);
[[nodiscard]] FixedBaseSnapshot read_fixed_base(ByteReader& r);

// Candidate terms, hottest first, per the policy (explicit list filtered to
// indexed terms, else by descending document frequency).
[[nodiscard]] std::vector<std::string> rank_hot_terms(const IndexSnapshot& snap,
                                                      const TierPolicy& policy);

struct TierBuildResult {
  std::shared_ptr<const WitnessTier> tier;  // null when nothing fit the budget
  FixedBaseSnapshot fixed_base;             // public-side BGMW table for g
  std::uint64_t table_bytes = 0;            // encoded witness tables
  std::uint64_t fixed_base_bytes = 0;       // encoded fixed-base image
  std::size_t terms_considered = 0;
  std::size_t terms_skipped = 0;            // candidates dropped by the budget
  double build_seconds = 0;
};

// Runs the batch witness engine over the hot set and builds the public-side
// fixed-base table.  `witness_ctx` may be the owner context (trapdoor-fast,
// the vcsearch-build path) or a public one (cloud-side re-tiering); either
// yields the same unique witness residues.  The fixed-base table is always
// built public-side — the persisted image must never derive from the secret
// factors.
[[nodiscard]] TierBuildResult build_witness_tier(const IndexSnapshot& snap,
                                                 const AccumulatorContext& witness_ctx,
                                                 const TierPolicy& policy);

}  // namespace vc
