#include "proof/prover.hpp"

#include <algorithm>
#include <functional>

#include "bloom/compressed_bloom.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/errors.hpp"
#include "support/stopwatch.hpp"
#include "support/threadpool.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {

namespace {

// Tier effectiveness: one event per nonempty membership evidence generated
// while a tier is attached.  A hit means every witness in the evidence came
// from the tables; anything else (untiered term, missing key, aggregation
// past the profitability crossover) is a miss and fell back to the compute
// path.  Empty-subset evidence (an integrity proof with no check docs) is
// served straight from the attested accumulator and counts as neither.
obs::Counter& tier_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_witness_tier_hits", "", "Membership evidences fully served from the witness tier");
  return c;
}
obs::Counter& tier_misses() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_witness_tier_misses", "",
      "Membership evidences that fell back to the compute path");
  return c;
}

// Fan-out helper: pool when present, inline otherwise.  Bodies fill
// disjoint slots, so proof bytes are independent of scheduling.
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(0, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

// Hybrid-policy accounting (§III-D2): how often each integrity encoding is
// chosen, and how far the cost model's estimate was from the measured
// generation time.  The delta is signed (estimate minus actual), so a
// near-zero total over many queries means the model is calibrated, not
// merely that its errors are small.
struct HybridMetrics {
  obs::Counter& choices;
  obs::TimeCounter& estimated;
  obs::TimeCounter& actual;
  obs::TimeCounter& delta;
};

HybridMetrics hybrid_metrics(IntegrityChoice choice) {
  auto& reg = obs::MetricsRegistry::global();
  std::string label = choice == IntegrityChoice::kAccumulator ? "choice=\"accumulator\""
                                                              : "choice=\"bloom\"";
  return HybridMetrics{
      reg.counter("vc_hybrid_choice_total", label,
                  "Integrity encodings picked by the hybrid policy"),
      reg.time_counter("vc_hybrid_estimated_seconds_total", label,
                       "Hybrid policy's predicted integrity generation time"),
      reg.time_counter("vc_hybrid_actual_seconds_total", label,
                       "Measured integrity generation time for hybrid queries"),
      reg.time_counter("vc_hybrid_estimate_delta_seconds_total", label,
                       "Estimated minus actual integrity generation time (signed)"),
  };
}

}  // namespace

Prover::Prover(SnapshotPtr snapshot, AccumulatorContext ctx, ThreadPool* pool)
    : snap_(std::move(snapshot)), ctx_(std::move(ctx)), pool_(pool) {
  if (snap_ == nullptr) throw UsageError("Prover requires a snapshot");
  // Every fan-out below the proof managers (per-interval parts, batched
  // witness trees) rides the same pool.
  ctx_.set_pool(pool);
  // Nearly every cloud-side witness exponentiation has base g; one windowed
  // table serves them all.  The widest flat exponent is the full product of
  // the largest posting list's representatives.  A context that already
  // carries a table for g (shared across epochs by the serving core) is
  // reused as-is, so per-epoch prover construction stays cheap.
  if (!ctx_.power().has_fixed_base(ctx_.g())) {
    std::size_t max_postings = std::max<std::size_t>(1, snap_->max_posting_count());
    ctx_.enable_fixed_base((max_postings + 1) * snap_->config().rep_bits);
  }
  tier_ = snap_->witness_tier();
}

const TermWitnessTable* Prover::tier_for(std::string_view term) const {
  return tier_ == nullptr ? nullptr : tier_->find(term);
}

std::vector<const IndexEntry*> Prover::lookup(const SearchResult& result) const {
  if (result.keywords.size() < 2) {
    throw UsageError("Prover::prove expects a multi-keyword result");
  }
  if (result.keywords.size() != result.postings.size()) {
    throw UsageError("result keywords/postings mismatch");
  }
  std::vector<const IndexEntry*> entries;
  entries.reserve(result.keywords.size());
  for (const auto& kw : result.keywords) {
    const auto* e = snap_->find(kw);
    if (e == nullptr) throw UsageError("keyword not in verifiable index: " + kw);
    entries.push_back(e);
  }
  return entries;
}

namespace {

// Wraps a tier's interval subtable as a ChatProvider for the interval proof
// path.  `served` stays true only if every touched interval's chat came from
// the tables; a returned nullopt makes prove_membership fall back to the
// direct computation for that part (and the evidence counts as a tier miss).
IntervalIndex::ChatProvider make_chat_provider(const AccumulatorContext& ctx,
                                               const WitnessSubTable& table,
                                               PrimeCache& primes,
                                               std::atomic<bool>& served) {
  return [&ctx, &table, &primes, &served](std::span<const std::uint64_t> members,
                                          std::span<const std::uint64_t> group)
             -> std::optional<Bigint> {
    static obs::Histogram& stage = obs::MetricsRegistry::global().stage("tier_lookup");
    obs::Span span(stage, "tier_lookup");
    std::optional<Bigint> chat =
        tiered_subset_witness(ctx, table, group, members.size(), primes);
    if (!chat) served.store(false, std::memory_order_relaxed);
    return chat;
  };
}

}  // namespace

MembershipEvidence Prover::prove_membership(Side side, const IndexEntry& entry,
                                            std::span<const std::uint64_t> values,
                                            bool interval_form,
                                            const TermWitnessTable* tier) const {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("membership_witness");
  obs::Span span(stage, "membership_witness");
  const bool tuples = side == Side::kTuples;
  PrimeCache& primes = tuples ? snap_->tuple_primes() : snap_->doc_primes();
  MembershipEvidence ev;
  ev.interval_form = interval_form;
  if (interval_form) {
    IntervalIndex::ChatProvider provider;
    std::atomic<bool> served{tier != nullptr};
    if (tier != nullptr) {
      provider = make_chat_provider(
          ctx_, tuples ? tier->interval_tuple : tier->interval_doc, primes, served);
    }
    const IntervalIndex& intervals = tuples ? entry.tuple_intervals : entry.doc_intervals;
    ev.interval = intervals.prove_membership(ctx_, values, primes, provider);
    if (tier_ != nullptr && !values.empty()) {
      bool hit = served.load();
      (hit ? tier_hits() : tier_misses()).inc();
      obs::trace_attr("witness_tier", hit ? "hit" : "miss");
    }
    return ev;
  }
  if (values.empty()) {
    // The empty subset's witness is g^(Π all reps) — exactly the flat
    // accumulator the owner attested.  Witness residues are unique, so
    // serving it from the statement is byte-identical to the complement
    // exponentiation it replaces.
    ev.flat_witness =
        tuples ? entry.attestation.stmt.tuple_acc : entry.attestation.stmt.doc_acc;
    return ev;
  }
  if (tier != nullptr) {
    static obs::Histogram& lookup_stage = obs::MetricsRegistry::global().stage("tier_lookup");
    obs::Span lookup_span(lookup_stage, "tier_lookup");
    if (std::optional<Bigint> w =
            tiered_subset_witness(ctx_, tuples ? tier->flat_tuple : tier->flat_doc, values,
                                  entry.postings.size(), primes)) {
      tier_hits().inc();
      obs::trace_attr("witness_tier", "hit");
      ev.flat_witness = *std::move(w);
      return ev;
    }
  }
  if (tier_ != nullptr) {
    tier_misses().inc();
    obs::trace_attr("witness_tier", "miss");
  }
  // Flat Eq-4 witness: g^(Π reps of all postings not in the subset).
  std::vector<Bigint> rest;
  rest.reserve(entry.postings.size());
  for (const Posting& p : entry.postings) {
    std::uint64_t v =
        tuples ? InvertedIndex::encode_tuple(p) : InvertedIndex::encode_doc(p.doc_id);
    if (!std::binary_search(values.begin(), values.end(), v)) {
      rest.push_back(primes.get(v));
    }
  }
  ev.flat_witness = membership_witness(ctx_, rest);
  return ev;
}

NonmembershipEvidence Prover::prove_doc_nonmembership(const IndexEntry& entry,
                                                      std::span<const std::uint64_t> docs,
                                                      bool interval_form) const {
  static obs::Histogram& stage =
      obs::MetricsRegistry::global().stage("nonmembership_witness");
  obs::Span span(stage, "nonmembership_witness");
  NonmembershipEvidence ev;
  ev.interval_form = interval_form;
  if (interval_form) {
    ev.interval = entry.doc_intervals.prove_nonmembership(ctx_, docs, snap_->doc_primes());
    return ev;
  }
  std::vector<Bigint> set_reps, outsider_reps;
  set_reps.reserve(entry.postings.size());
  for (const Posting& p : entry.postings) {
    set_reps.push_back(snap_->doc_primes().get(InvertedIndex::encode_doc(p.doc_id)));
  }
  outsider_reps.reserve(docs.size());
  for (std::uint64_t d : docs) outsider_reps.push_back(snap_->doc_primes().get(d));
  ev.flat = nonmembership_witness(ctx_, set_reps, outsider_reps);
  return ev;
}

namespace {

// The base keyword of the integrity proof is the smallest posting list —
// its complement bounds the proof size (§III-C).
std::size_t pick_base(std::span<const IndexEntry* const> entries) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i]->postings.size() < entries[best]->postings.size()) best = i;
  }
  return best;
}

}  // namespace

AccumulatorIntegrity Prover::make_accumulator_integrity(
    const SearchResult& result, std::span<const IndexEntry* const> entries,
    bool interval_form) const {
  static obs::Histogram& stage =
      obs::MetricsRegistry::global().stage("integrity_accumulator");
  obs::Span span(stage, "integrity_accumulator");
  AccumulatorIntegrity integrity;
  std::size_t base = pick_base(entries);
  integrity.base_keyword = static_cast<std::uint32_t>(base);

  U64Set base_docs = InvertedIndex::doc_set(entries[base]->postings);
  integrity.check_docs = set_difference(base_docs, result.docs);
  integrity.check_membership =
      prove_membership(Side::kDocs, *entries[base], integrity.check_docs, interval_form,
                       tier_for(result.keywords[base]));

  // Assign every check doc to the smallest other keyword missing it, then
  // aggregate one nonmembership witness per keyword (§III-C).
  std::vector<U64Set> doc_sets(entries.size());
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == base) continue;
    doc_sets[i] = InvertedIndex::doc_set(entries[i]->postings);
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return doc_sets[a].size() < doc_sets[b].size();
  });
  std::vector<U64Set> grouped(entries.size());
  for (std::uint64_t doc : integrity.check_docs) {
    bool assigned = false;
    for (std::size_t i : order) {
      if (!std::binary_search(doc_sets[i].begin(), doc_sets[i].end(), doc)) {
        grouped[i].push_back(doc);
        assigned = true;
        break;
      }
    }
    if (!assigned) {
      // Impossible for a correctly computed result: a doc in every keyword
      // set belongs to the intersection.
      throw CryptoError("integrity: check doc present in every keyword set");
    }
  }
  std::vector<std::size_t> nonempty;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!grouped[i].empty()) nonempty.push_back(i);
  }
  // One aggregated witness per keyword; the groups are independent, so they
  // fan out across the pool.  Slot order fixes the proof byte order.
  static obs::Histogram& agg_stage =
      obs::MetricsRegistry::global().stage("witness_aggregation");
  obs::Span agg_span(agg_stage, "witness_aggregation");
  integrity.groups.resize(nonempty.size());
  for_each_index(pool_, nonempty.size(), [&](std::size_t t) {
    std::size_t i = nonempty[t];
    NonmembershipGroup g;
    g.keyword = static_cast<std::uint32_t>(i);
    g.docs = std::move(grouped[i]);
    g.evidence = prove_doc_nonmembership(*entries[i], g.docs, interval_form);
    integrity.groups[t] = std::move(g);
  });
  return integrity;
}

BloomIntegrity Prover::make_bloom_integrity(
    const SearchResult& result, std::span<const IndexEntry* const> entries,
    bool interval_form) const {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("integrity_bloom");
  obs::Span span(stage, "integrity_bloom");
  const BloomParams& params = snap_->config().bloom;
  // B̂ = element-wise min over every keyword's signed filter — decoded here,
  // as the verifier decodes it; slots where B(S) falls short need check
  // elements from every keyword.
  std::vector<CountingBloom> filters;
  filters.reserve(entries.size());
  for (const IndexEntry* e : entries) {
    filters.push_back(decompress_bloom(e->bloom_attestation.stmt.doc_bloom));
  }
  CountingBloom bs = CountingBloom::from_set(params, result.docs);
  std::vector<bool> open(params.counters, false);
  for (std::uint32_t j = 0; j < params.counters; ++j) {
    std::uint32_t bhat = filters[0].counter(j);
    for (std::size_t i = 1; i < filters.size(); ++i) bhat = std::min(bhat, filters[i].counter(j));
    open[j] = bs.counter(j) < bhat;
  }

  BloomIntegrity integrity;
  integrity.parts.resize(entries.size());
  // Per-keyword parts are independent; each task keeps its own probe filter
  // so position hashing has no shared state.
  for_each_index(pool_, entries.size(), [&](std::size_t i) {
    CountingBloom probe(params);
    BloomKeywordPart part;
    part.bloom = entries[i]->bloom_attestation;
    for (const Posting& p : entries[i]->postings) {
      std::uint64_t d = InvertedIndex::encode_doc(p.doc_id);
      if (std::binary_search(result.docs.begin(), result.docs.end(), d)) continue;
      for (std::uint32_t j : probe.positions(d)) {
        if (open[j]) {
          part.check_elements.push_back(d);
          break;
        }
      }
    }
    part.check_membership = prove_membership(Side::kDocs, *entries[i], part.check_elements,
                                             interval_form, tier_for(result.keywords[i]));
    integrity.parts[i] = std::move(part);
  });
  return integrity;
}

HybridEstimate Prover::hybrid_estimate(const SearchResult& result) const {
  auto entries = lookup(result);
  std::size_t base = pick_base(entries);
  U64Set base_docs = InvertedIndex::doc_set(entries[base]->postings);
  std::vector<std::size_t> bloom_bytes, set_sizes;
  for (const auto* e : entries) {
    bloom_bytes.push_back(e->bloom_attestation.stmt.doc_bloom.byte_size());
    set_sizes.push_back(e->postings.size());
  }
  HybridPolicyInputs in;
  in.check_doc_count = base_docs.size() - result.docs.size();
  in.keyword_count = entries.size();
  in.modulus_bytes = (ctx_.n().bit_length() + 7) / 8;
  in.interval_size = snap_->config().interval_size;
  in.bloom_bytes = bloom_bytes;
  in.set_sizes = set_sizes;
  in.bloom_counters = snap_->config().bloom.counters;
  return estimate_integrity_cost(in);
}

QueryProof Prover::prove(const SearchResult& result, SchemeKind scheme) const {
  static obs::Histogram& prove_stage = obs::MetricsRegistry::global().stage("prove");
  obs::Span prove_span(prove_stage, "prove");
  auto entries = lookup(result);
  const bool interval_form = uses_interval_witnesses(scheme);

  QueryProof proof;
  proof.scheme = scheme;
  for (const auto* e : entries) proof.terms.push_back(e->attestation);

  // Correctness and integrity build concurrently (Fig 4's managers).
  auto build_correctness = [&]() {
    static obs::Histogram& stage = obs::MetricsRegistry::global().stage("correctness");
    obs::Span span(stage, "correctness");
    CorrectnessProof correctness;
    correctness.keywords.resize(entries.size());
    for_each_index(pool_, entries.size(), [&](std::size_t i) {
      U64Set tuples = InvertedIndex::tuple_set(result.postings[i]);
      std::sort(tuples.begin(), tuples.end());
      correctness.keywords[i] = prove_membership(Side::kTuples, *entries[i], tuples,
                                                 interval_form, tier_for(result.keywords[i]));
    });
    return correctness;
  };

  auto build_integrity = [&]() -> IntegrityProof {
    switch (scheme) {
      case SchemeKind::kAccumulator:
      case SchemeKind::kIntervalAccumulator:
        return make_accumulator_integrity(result, entries, interval_form);
      case SchemeKind::kBloom:
        return make_bloom_integrity(result, entries, /*interval_form=*/false);
      case SchemeKind::kHybrid: {
        HybridEstimate est = hybrid_estimate(result);
        HybridMetrics hm = hybrid_metrics(est.choice);
        hm.choices.inc();
        double estimated = est.choice == IntegrityChoice::kAccumulator
                               ? est.accumulator_seconds
                               : est.bloom_seconds;
        double actual = 0;
        IntegrityProof out;
        {
          ScopedTimer t(actual);
          if (est.choice == IntegrityChoice::kAccumulator) {
            out = make_accumulator_integrity(result, entries, /*interval_form=*/true);
          } else {
            out = make_bloom_integrity(result, entries, /*interval_form=*/true);
          }
        }
        hm.estimated.add(estimated);
        hm.actual.add(actual);
        hm.delta.add(estimated - actual);
        return out;
      }
    }
    throw UsageError("unknown scheme");
  };

  // Cooperative two-way fork: the calling thread runs one manager itself,
  // so proving makes progress even when every worker is busy.
  for_each_index(pool_, 2, [&](std::size_t which) {
    if (which == 0) {
      proof.correctness = build_correctness();
    } else {
      proof.integrity = build_integrity();
    }
  });
  return proof;
}

void Prover::prove_boolean(BooleanQueryResponse& body,
                           const std::vector<std::string>& unknowns,
                           SchemeKind scheme) const {
  static obs::Histogram& prove_stage = obs::MetricsRegistry::global().stage("prove");
  obs::Span prove_span(prove_stage, "prove");
  const bool interval_form = uses_interval_witnesses(scheme);

  std::vector<const IndexEntry*> entries;
  std::vector<U64Set> doc_sets;
  entries.reserve(body.terms.size());
  doc_sets.reserve(body.terms.size());
  for (const auto& t : body.terms) {
    const auto* e = snap_->find(t);
    if (e == nullptr) throw UsageError("keyword not in verifiable index: " + t);
    entries.push_back(e);
    doc_sets.push_back(InvertedIndex::doc_set(e->postings));
  }
  auto term_index = [&](const std::string& t) -> std::ptrdiff_t {
    auto it = std::lower_bound(body.terms.begin(), body.terms.end(), t);
    if (it == body.terms.end() || *it != t) return -1;
    return it - body.terms.begin();
  };
  auto in_set = [&](std::size_t ti, std::uint64_t d) {
    return std::binary_search(doc_sets[ti].begin(), doc_sets[ti].end(), d);
  };

  BooleanProof& proof = body.proof;
  proof.scheme = scheme;
  for (const auto* e : entries) proof.terms.push_back(e->attestation);

  // Guards: recomputed deterministically from the expression, so the indices
  // the proof carries always match what guard_terms chose for the engine.
  auto posting_count = [&](const std::string& t) -> std::optional<std::uint64_t> {
    std::ptrdiff_t i = term_index(t);
    if (i < 0) return std::nullopt;
    return entries[static_cast<std::size_t>(i)]->postings.size();
  };
  std::optional<std::vector<std::string>> guards = guard_terms(body.expr, posting_count);
  if (!guards.has_value()) throw UsageError("query is not positive-guarded");
  for (const auto& g : *guards) {
    proof.guards.push_back(static_cast<std::uint32_t>(term_index(g)));
  }

  // Facts: the minimal member/nonmember sets that let the verifier's
  // three-valued evaluation reach a definite verdict for every doc in S and
  // C, plus a completeness fill over S (every term decided for every result
  // doc — this pins the disclosed postings, hence the tf scores), plus each
  // guard's full document set (the posting-count pin makes it exhaustive).
  std::vector<U64Set> members(entries.size()), nonmembers(entries.size());
  std::function<bool(const BoolNode&, std::uint64_t)> sat =
      [&](const BoolNode& node, std::uint64_t d) -> bool {
    switch (node.kind) {
      case BoolNode::Kind::kTerm: {
        std::ptrdiff_t i = term_index(node.term);
        return i >= 0 && in_set(static_cast<std::size_t>(i), d);
      }
      case BoolNode::Kind::kNot:
        return !sat(node.children[0], d);
      case BoolNode::Kind::kAnd:
        for (const BoolNode& c : node.children) {
          if (!sat(c, d)) return false;
        }
        return true;
      case BoolNode::Kind::kOr:
        for (const BoolNode& c : node.children) {
          if (sat(c, d)) return true;
        }
        return false;
    }
    return false;
  };
  std::function<void(const BoolNode&, std::uint64_t, bool)> collect =
      [&](const BoolNode& node, std::uint64_t d, bool want) {
        switch (node.kind) {
          case BoolNode::Kind::kTerm: {
            std::ptrdiff_t i = term_index(node.term);
            // Dictionary-absent leaf: constant false, covered by a gap proof.
            if (i < 0) return;
            (want ? members : nonmembers)[static_cast<std::size_t>(i)].push_back(d);
            return;
          }
          case BoolNode::Kind::kNot:
            collect(node.children[0], d, !want);
            return;
          case BoolNode::Kind::kAnd:
            if (want) {
              for (const BoolNode& c : node.children) collect(c, d, true);
            } else {
              for (const BoolNode& c : node.children) {
                if (!sat(c, d)) {
                  collect(c, d, false);
                  return;
                }
              }
              throw CryptoError("boolean facts: AND is false with no false child");
            }
            return;
          case BoolNode::Kind::kOr:
            if (want) {
              for (const BoolNode& c : node.children) {
                if (sat(c, d)) {
                  collect(c, d, true);
                  return;
                }
              }
              throw CryptoError("boolean facts: OR is true with no true child");
            } else {
              for (const BoolNode& c : node.children) collect(c, d, false);
            }
            return;
        }
      };
  for (std::uint64_t d : body.docs) collect(body.expr, d, true);
  for (std::uint64_t c : body.check_docs) collect(body.expr, c, false);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::uint64_t d : body.docs) {
      (in_set(i, d) ? members : nonmembers)[i].push_back(d);
    }
  }
  for (std::uint32_t g : proof.guards) {
    members[g].insert(members[g].end(), doc_sets[g].begin(), doc_sets[g].end());
  }
  auto dedup = [](U64Set& s) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    dedup(members[i]);
    dedup(nonmembers[i]);
  }

  // Per-term evidence — membership and nonmembership facts plus the tuple
  // correctness over the disclosed postings — fans out across the pool.
  // Slot order fixes the proof bytes, as in prove().
  proof.facts.resize(entries.size());
  proof.correctness.keywords.resize(entries.size());
  for_each_index(pool_, entries.size(), [&](std::size_t i) {
    const TermWitnessTable* tier = tier_for(body.terms[i]);
    BooleanTermFacts f;
    f.members = std::move(members[i]);
    f.membership = prove_membership(Side::kDocs, *entries[i], f.members, interval_form, tier);
    f.nonmembers = std::move(nonmembers[i]);
    if (!f.nonmembers.empty()) {
      f.nonmembership = prove_doc_nonmembership(*entries[i], f.nonmembers, interval_form);
    }
    proof.facts[i] = std::move(f);
    U64Set tuples = InvertedIndex::tuple_set(body.postings[i]);
    std::sort(tuples.begin(), tuples.end());
    proof.correctness.keywords[i] =
        prove_membership(Side::kTuples, *entries[i], tuples, interval_form, tier);
  });

  for (const auto& u : unknowns) {
    UnknownTermProof up;
    up.term = u;
    up.gap = snap_->dictionary().prove_unknown(u);
    proof.unknowns.push_back(std::move(up));
  }
  if (!proof.unknowns.empty()) proof.dict = snap_->dict_attestation();
}

}  // namespace vc
