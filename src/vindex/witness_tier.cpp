#include "vindex/witness_tier.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <set>
#include <utility>

#include "accumulator/batch_witness.hpp"
#include "accumulator/witness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {

obs::Gauge& tier_terms_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_witness_tier_terms", "", "Terms with materialized witness tables in the active tier");
  return g;
}
obs::Gauge& tier_bytes_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_witness_tier_bytes", "", "Encoded bytes of the active tier's witness tables");
  return g;
}

// Cold call_once decodes of a lazily mapped tier table — the event the
// publish pipeline's warm stage exists to move off the query path.  The
// warm-stage test asserts this stays flat across post-swap queries for the
// warmed set.
obs::Counter& tier_materializations() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_witness_tier_materializations_total", "",
      "Lazy witness-tier tables decoded from the mapping (cold first touches)");
  return c;
}

// find() calls served from a table the warm stage pre-materialized.
obs::Counter& warm_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_warm_hits_total", "",
      "Tier lookups served from a table pre-materialized by the warm stage");
  return c;
}

}  // namespace

// --- tables ------------------------------------------------------------------

const Bigint* WitnessSubTable::lookup(std::uint64_t key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return nullptr;
  return &witnesses[static_cast<std::size_t>(it - keys.begin())];
}

void WitnessSubTable::write(ByteWriter& w) const {
  if (keys.size() != witnesses.size()) {
    throw UsageError("WitnessSubTable: keys/witnesses size mismatch");
  }
  w.varint(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    w.u64(keys[i]);
    witnesses[i].write(w);
  }
}

WitnessSubTable WitnessSubTable::read(ByteReader& r) {
  WitnessSubTable t;
  const std::size_t count = r.count(sizeof(std::uint64_t) + Bigint::kMinEncodedBytes);
  t.keys.reserve(count);
  t.witnesses.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t key = r.u64();
    if (!t.keys.empty() && key <= t.keys.back()) {
      throw ParseError("WitnessSubTable: keys not strictly increasing");
    }
    t.keys.push_back(key);
    t.witnesses.push_back(Bigint::read(r));
  }
  return t;
}

void TermWitnessTable::write(ByteWriter& w) const {
  flat_tuple.write(w);
  flat_doc.write(w);
  interval_tuple.write(w);
  interval_doc.write(w);
}

TermWitnessTable TermWitnessTable::read(ByteReader& r) {
  TermWitnessTable t;
  t.flat_tuple = WitnessSubTable::read(r);
  t.flat_doc = WitnessSubTable::read(r);
  t.interval_tuple = WitnessSubTable::read(r);
  t.interval_doc = WitnessSubTable::read(r);
  return t;
}

// --- WitnessTier -------------------------------------------------------------

WitnessTier::WitnessTier(TableMap tables) {
  terms_.reserve(tables.size());
  tables_.reserve(tables.size());
  for (auto& [term, table] : tables) {
    terms_.push_back(term);
    table_bytes_ += table->byte_size;
    tables_.push_back(std::move(table));
  }
  tier_terms_gauge().set(static_cast<std::int64_t>(terms_.size()));
  tier_bytes_gauge().set(static_cast<std::int64_t>(table_bytes_));
}

WitnessTier::WitnessTier(std::vector<std::string> terms,
                         std::shared_ptr<const TierSource> source, std::uint64_t table_bytes)
    : terms_(std::move(terms)), source_(std::move(source)), table_bytes_(table_bytes) {
  if (!std::is_sorted(terms_.begin(), terms_.end())) {
    throw UsageError("WitnessTier: lazy term list must be sorted");
  }
  if (source_ == nullptr) throw UsageError("WitnessTier: lazy tier needs a source");
  slots_ = std::make_unique<Slot[]>(terms_.size());
  tier_terms_gauge().set(static_cast<std::int64_t>(terms_.size()));
  tier_bytes_gauge().set(static_cast<std::int64_t>(table_bytes_));
}

const TermWitnessTable* WitnessTier::materialize(std::size_t rank) const {
  Slot& slot = slots_[rank];
  std::call_once(slot.once, [&] {
    slot.table = source_->load(rank, terms_[rank]);
    tier_materializations().inc();
    obs::trace_attr("tier_lazy_materialize", terms_[rank]);
  });
  return slot.table.get();
}

const TermWitnessTable* WitnessTier::find(std::string_view term) const {
  auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  if (it == terms_.end() || *it != term) return nullptr;
  std::size_t rank = static_cast<std::size_t>(it - terms_.begin());
  if (source_ == nullptr) return tables_[rank].get();
  const TermWitnessTable* table = materialize(rank);
  if (slots_[rank].warmed.load(std::memory_order_relaxed)) warm_hits().inc();
  return table;
}

std::uint64_t WitnessTier::warm(std::string_view term) const {
  auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  if (it == terms_.end() || *it != term) return 0;
  std::size_t rank = static_cast<std::size_t>(it - terms_.begin());
  // An eager tier is resident by construction; report its footprint so the
  // warm budget still accounts for it.
  if (source_ == nullptr) return tables_[rank]->byte_size;
  const TermWitnessTable* table = materialize(rank);
  slots_[rank].warmed.store(true, std::memory_order_relaxed);
  return table->byte_size;
}

// --- online fast path --------------------------------------------------------

std::optional<Bigint> tiered_subset_witness(const AccumulatorContext& ctx,
                                            const WitnessSubTable& table,
                                            std::span<const std::uint64_t> subset,
                                            std::size_t set_size, PrimeCache& primes) {
  const std::size_t k = subset.size();
  if (k == 0 || set_size == 0 || k > set_size) return std::nullopt;
  if (k == set_size) {
    // Whole-set subset: the "rest" product is empty, matching what the
    // compute path's pow_product(g, {}) returns.
    return Bigint::mod(ctx.g(), ctx.n());
  }
  if (k == 1) {
    const Bigint* w = table.lookup(subset[0]);
    if (w == nullptr) return std::nullopt;
    return *w;  // pure lookup — the zero-modexp case
  }
  // Shamir aggregation costs O(k log k) rep-width exponentiations; the
  // compute path pays one (set_size - k)·rep_bits-wide exponentiation.
  // Past this crossover the tier would be slower than the fallback.
  if (k * static_cast<std::size_t>(std::bit_width(k)) > set_size) return std::nullopt;
  std::vector<Bigint> ps, ws;
  ps.reserve(k);
  ws.reserve(k);
  for (std::uint64_t v : subset) {
    const Bigint* w = table.lookup(v);
    if (w == nullptr) return std::nullopt;
    ws.push_back(*w);
    ps.push_back(primes.get(v));
  }
  return aggregate_membership_witnesses(ctx, ps, ws);
}

// --- hotness policy ----------------------------------------------------------

std::vector<std::string> rank_hot_terms(const IndexSnapshot& snap, const TierPolicy& policy) {
  std::vector<std::string> out;
  if (!policy.hot_terms.empty()) {
    std::set<std::string_view> seen;
    for (const std::string& term : policy.hot_terms) {
      if (snap.entries().find(term) == snap.entries().end()) continue;
      if (seen.insert(term).second) out.push_back(term);
    }
  } else {
    struct Candidate {
      std::string_view term;
      std::size_t df = 0;
    };
    std::vector<Candidate> cands;
    cands.reserve(snap.term_count());
    for (const auto& [term, unused] : snap.entries()) {
      Candidate c{.term = term};
      // Document frequency materializes lazy entries; hotness ranking runs
      // at publish time where the snapshot is eager, so this is a lookup.
      if (const IndexEntry* e = snap.find(term)) c.df = e->postings.size();
      cands.push_back(c);
    }
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      if (a.df != b.df) return a.df > b.df;
      return a.term < b.term;
    });
    out.reserve(cands.size());
    for (const Candidate& c : cands) out.emplace_back(c.term);
  }
  if (policy.top_k != 0 && out.size() > policy.top_k) out.resize(policy.top_k);
  return out;
}

// --- builder -----------------------------------------------------------------

void write_fixed_base(ByteWriter& w, const FixedBaseSnapshot& snap) {
  snap.base.write(w);
  w.varint(snap.window);
  w.varint(snap.capacity_bits);
  w.varint(snap.powers.size());
  for (const Bigint& p : snap.powers) p.write(w);
}

FixedBaseSnapshot read_fixed_base(ByteReader& r) {
  FixedBaseSnapshot snap;
  snap.base = Bigint::read(r);
  snap.window = static_cast<std::size_t>(r.varint());
  snap.capacity_bits = static_cast<std::size_t>(r.varint());
  const std::size_t count = r.count(Bigint::kMinEncodedBytes);
  snap.powers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) snap.powers.push_back(Bigint::read(r));
  return snap;
}

TierBuildResult build_witness_tier(const IndexSnapshot& snap,
                                   const AccumulatorContext& witness_ctx,
                                   const TierPolicy& policy) {
  obs::Span span(obs::MetricsRegistry::global().stage("tier_build"), "tier_build");
  auto start = std::chrono::steady_clock::now();
  TierBuildResult out;

  // The persisted fixed-base table is always derived on the public side —
  // the owner's phi-reduced tables must never leave the process.
  AccumulatorContext pub = AccumulatorContext::public_side(witness_ctx.params());
  const std::size_t rep_bits = snap.config().rep_bits;
  pub.enable_fixed_base((snap.max_posting_count() + 1) * rep_bits);
  std::optional<FixedBaseSnapshot> fb = pub.power().export_fixed_base();
  if (!fb) throw CryptoError("build_witness_tier: fixed-base export failed");
  out.fixed_base = *std::move(fb);
  {
    ByteWriter w;
    write_fixed_base(w, out.fixed_base);
    out.fixed_base_bytes = w.size();
  }

  // The fixed-base table is charged against the budget first: restoring it
  // is what makes cold-restart proofs fast even for untiered terms.
  std::uint64_t spent = out.fixed_base_bytes;
  const std::size_t modulus_bytes = (snap.config().modulus_bits + 7) / 8;
  WitnessTier::TableMap tables;

  for (const std::string& term : rank_hot_terms(snap, policy)) {
    ++out.terms_considered;
    const IndexEntry* entry = snap.find(term);
    if (entry == nullptr || entry->postings.empty()) continue;
    const std::size_t df = entry->postings.size();
    // Four witnesses (+key +framing) per posting; skip before paying the
    // batch sweep when the term clearly cannot fit.
    std::uint64_t estimate = static_cast<std::uint64_t>(df) * 4 * (modulus_bytes + 12 + 8);
    if (spent + estimate > policy.budget_bytes) {
      ++out.terms_skipped;
      continue;
    }

    auto table = std::make_shared<TermWitnessTable>();
    std::vector<std::uint64_t> keys;
    std::vector<Bigint> primes;
    keys.reserve(df);
    primes.reserve(df);

    // Flat tuple set: g^(Π tuples \ {t}) per tuple.  encode_tuple is
    // monotonic in doc_id, so posting order is already sorted key order.
    for (const Posting& p : entry->postings) {
      keys.push_back(InvertedIndex::encode_tuple(p));
      primes.push_back(snap.tuple_primes().get(keys.back()));
    }
    table->flat_tuple.witnesses = batch_membership_witnesses(witness_ctx, primes);
    table->flat_tuple.keys = keys;

    // Flat doc set.
    keys.clear();
    primes.clear();
    for (const Posting& p : entry->postings) {
      keys.push_back(InvertedIndex::encode_doc(p.doc_id));
      primes.push_back(snap.doc_primes().get(keys.back()));
    }
    table->flat_doc.witnesses = batch_membership_witnesses(witness_ctx, primes);
    table->flat_doc.keys = keys;

    // Interval trees: per-member chats against each home interval's
    // accumulator b_k.  Intervals partition the sorted element set, so the
    // concatenated keys stay strictly increasing.
    auto tier_intervals = [&](const IntervalIndex& idx, PrimeCache& cache,
                              WitnessSubTable& sub) {
      for (std::size_t k = 0; k < idx.interval_count(); ++k) {
        std::span<const std::uint64_t> members = idx.interval_members(k);
        keys.assign(members.begin(), members.end());
        primes.clear();
        primes.reserve(keys.size());
        for (std::uint64_t v : keys) primes.push_back(cache.get(v));
        std::vector<Bigint> ws = batch_membership_witnesses(witness_ctx, primes);
        sub.keys.insert(sub.keys.end(), keys.begin(), keys.end());
        sub.witnesses.insert(sub.witnesses.end(), std::make_move_iterator(ws.begin()),
                             std::make_move_iterator(ws.end()));
      }
    };
    tier_intervals(entry->tuple_intervals, snap.tuple_primes(), table->interval_tuple);
    tier_intervals(entry->doc_intervals, snap.doc_primes(), table->interval_doc);

    ByteWriter w;
    table->write(w);
    table->byte_size = w.size();
    if (spent + table->byte_size > policy.budget_bytes) {
      ++out.terms_skipped;
      continue;
    }
    spent += table->byte_size;
    out.table_bytes += table->byte_size;
    tables.emplace(term, std::move(table));
  }

  if (!tables.empty()) out.tier = std::make_shared<WitnessTier>(std::move(tables));
  out.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace vc
