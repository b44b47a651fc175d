#include "advtest/proof_mutator.hpp"

#include <algorithm>

namespace vc::advtest {

const char* forgery_class_name(ForgeryClass c) {
  switch (c) {
    case ForgeryClass::kDropResultDoc: return "drop_result_doc";
    case ForgeryClass::kAddExtraDoc: return "add_extra_doc";
    case ForgeryClass::kWitnessSubstitution: return "witness_substitution";
    case ForgeryClass::kStaleAttestation: return "stale_attestation";
    case ForgeryClass::kEncodingSwap: return "encoding_swap";
    case ForgeryClass::kBloomCounterTamper: return "bloom_counter_tamper";
    case ForgeryClass::kForgedCheckElement: return "forged_check_element";
    case ForgeryClass::kKnownKeywordGap: return "known_keyword_gap";
    case ForgeryClass::kStructuredMutation: return "structured_mutation";
    case ForgeryClass::kEpochMixing: return "epoch_mixing";
    case ForgeryClass::kOrDroppedBranch: return "or_dropped_branch";
    case ForgeryClass::kNotFalseComplement: return "not_false_complement";
    case ForgeryClass::kTopkOmittedWinner: return "topk_omitted_winner";
    case ForgeryClass::kTopkInflatedTf: return "topk_inflated_tf";
    case ForgeryClass::kEpochChainSplice: return "epoch_chain_splice";
    case ForgeryClass::kDescriptorCounter: return "descriptor_counter";
  }
  return "?";
}

std::string format_trace(const std::vector<MutationStep>& trace) {
  std::string out = "[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) out += ";";
    out += trace[i].name + "(" + std::to_string(trace[i].a) + "," +
           std::to_string(trace[i].b) + ")";
  }
  out += "]";
  return out;
}

ProofMutator::ProofMutator(std::uint64_t seed, Bigint modulus)
    : rng_(seed, "vc.advtest.mutator"), modulus_(std::move(modulus)) {}

Bigint ProofMutator::perturb(const Bigint& w) const {
  return Bigint::mod(w * Bigint(2), modulus_);
}

bool ProofMutator::mutate(SearchResponse& response) {
  std::vector<Mutation> candidates;
  if (auto* multi = std::get_if<MultiKeywordResponse>(&response.body)) {
    collect_multi(*multi, candidates);
  } else if (auto* single = std::get_if<SingleKeywordResponse>(&response.body)) {
    collect_single(*single, candidates);
  } else if (auto* unknown = std::get_if<UnknownKeywordResponse>(&response.body)) {
    collect_unknown(*unknown, candidates);
  } else {
    collect_boolean(std::get<BooleanQueryResponse>(response.body), candidates);
  }
  return apply_one(candidates);
}

bool ProofMutator::apply_one(std::vector<Mutation>& candidates) {
  if (candidates.empty()) return false;
  std::size_t pick = rng_.below(candidates.size());
  candidates[pick].second();
  // The chosen mutation's own trace entry was appended by its body; tag it
  // with the catalogue name if the body did not record one.
  if (trace_.empty() || trace_.back().name != candidates[pick].first) {
    trace_.push_back(MutationStep{candidates[pick].first, pick, 0});
  }
  return true;
}

void ProofMutator::collect_multi(MultiKeywordResponse& multi, std::vector<Mutation>& out) {
  SearchResult& result = multi.result;
  QueryProof& proof = multi.proof;

  // --- witness exponent perturbation -------------------------------------
  for (std::size_t i = 0; i < proof.correctness.keywords.size(); ++i) {
    MembershipEvidence& ev = proof.correctness.keywords[i];
    if (!ev.interval_form) {
      out.emplace_back("perturb_flat_witness", [this, &ev, i] {
        ev.flat_witness = perturb(ev.flat_witness);
        trace_.push_back({"perturb_flat_witness", i, 0});
      });
    } else if (!ev.interval.parts.empty()) {
      std::size_t p = rng_.below(ev.interval.parts.size());
      out.emplace_back("perturb_interval_chat", [this, &ev, i, p] {
        ev.interval.parts[p].chat = perturb(ev.interval.parts[p].chat);
        trace_.push_back({"perturb_interval_chat", i, p});
      });
      out.emplace_back("perturb_mid_witness", [this, &ev, i, p] {
        ev.interval.parts[p].mid_witness = perturb(ev.interval.parts[p].mid_witness);
        trace_.push_back({"perturb_mid_witness", i, p});
      });
      // --- interval-boundary shift: the descriptor's representative no
      // longer belongs to the signed middle layer ------------------------
      out.emplace_back("shift_interval_bounds", [this, &ev, i, p] {
        IntervalDescriptor& d = ev.interval.parts[p].desc;
        if (d.lo < d.hi) {
          d.lo += 1;
        } else {
          d.hi += 1;
        }
        trace_.push_back({"shift_interval_bounds", i, p});
      });
      // --- counter bump: the descriptor's shipped counter now names a
      // composite or a prime the signed middle layer never accumulated ----
      out.emplace_back("bump_mid_counter", [this, &ev, i, p] {
        ev.interval.parts[p].mid_ctr += 1;
        trace_.push_back({"bump_mid_counter", i, p});
      });
    }
  }

  // --- field swap: attestations of two different terms --------------------
  if (proof.terms.size() >= 2 && proof.terms[0].stmt.term != proof.terms[1].stmt.term) {
    out.emplace_back("swap_attestations", [this, &proof] {
      std::swap(proof.terms[0], proof.terms[1]);
      trace_.push_back({"swap_attestations", 0, 1});
    });
  }

  // --- tuple weight tamper -------------------------------------------------
  for (std::size_t i = 0; i < result.postings.size(); ++i) {
    if (result.postings[i].empty()) continue;
    std::size_t k = rng_.below(result.postings[i].size());
    out.emplace_back("inflate_tf", [this, &result, i, k] {
      result.postings[i][k].tf += 7;
      trace_.push_back({"inflate_tf", i, k});
    });
    break;  // one posting-tamper candidate is enough
  }

  // --- aggregation-order tamper: result docs must stay sorted --------------
  if (result.docs.size() >= 2) {
    out.emplace_back("unsort_result_docs", [this, &result] {
      std::swap(result.docs[0], result.docs[1]);
      trace_.push_back({"unsort_result_docs", 0, 1});
    });
  }

  if (auto* acc = std::get_if<AccumulatorIntegrity>(&proof.integrity)) {
    // --- drop a check doc: the completeness pin no longer closes ----------
    if (!acc->check_docs.empty()) {
      out.emplace_back("drop_check_doc", [this, acc] {
        std::uint64_t doc = acc->check_docs.back();
        acc->check_docs.pop_back();
        for (auto& g : acc->groups) {
          g.docs.erase(std::remove(g.docs.begin(), g.docs.end(), doc), g.docs.end());
        }
        trace_.push_back({"drop_check_doc", doc, 0});
      });
    }
    // --- uncover a group doc: a check doc with no absence proof -----------
    for (std::size_t gi = 0; gi < acc->groups.size(); ++gi) {
      if (acc->groups[gi].docs.empty()) continue;
      out.emplace_back("uncover_group_doc", [this, acc, gi] {
        std::uint64_t doc = acc->groups[gi].docs.back();
        acc->groups[gi].docs.pop_back();
        trace_.push_back({"uncover_group_doc", gi, doc});
      });
      // --- cover a check doc twice (or duplicate within a group) ----------
      out.emplace_back("cover_doc_twice", [this, acc, gi] {
        std::uint64_t doc = acc->groups[gi].docs.front();
        std::size_t target = (gi + 1) % acc->groups.size();
        U64Set& dst = acc->groups[target].docs;
        dst.insert(std::lower_bound(dst.begin(), dst.end(), doc), doc);
        trace_.push_back({"cover_doc_twice", gi, target});
      });
      break;
    }
  } else if (auto* bloom = std::get_if<BloomIntegrity>(&proof.integrity)) {
    for (std::size_t pi = 0; pi < bloom->parts.size(); ++pi) {
      BloomKeywordPart& part = bloom->parts[pi];
      // --- omit a check element: the slot accounting gap stays open -------
      if (!part.check_elements.empty()) {
        out.emplace_back("drop_check_element", [this, &part, pi] {
          std::uint64_t e = part.check_elements.back();
          part.check_elements.pop_back();
          trace_.push_back({"drop_check_element", pi, e});
        });
      }
      // --- lie about the filter's element count (owner-signed field) ------
      out.emplace_back("forge_element_count", [this, &part, pi] {
        part.bloom.stmt.doc_bloom.element_count += 1;
        trace_.push_back({"forge_element_count", pi, 0});
      });
      break;
    }
  }
}

void ProofMutator::collect_single(SingleKeywordResponse& single,
                                  std::vector<Mutation>& out) {
  if (!single.postings.empty()) {
    out.emplace_back("truncate_postings", [this, &single] {
      single.postings.pop_back();
      trace_.push_back({"truncate_postings", single.postings.size(), 0});
    });
    out.emplace_back("inflate_tf_single", [this, &single] {
      single.postings[0].tf += 7;
      trace_.push_back({"inflate_tf_single", 0, 0});
    });
  }
  out.emplace_back("forge_posting_count", [this, &single] {
    single.attestation.stmt.posting_count += 1;
    trace_.push_back({"forge_posting_count", 0, 0});
  });
}

void ProofMutator::collect_boolean(BooleanQueryResponse& boolean,
                                   std::vector<Mutation>& out) {
  BooleanProof& proof = boolean.proof;

  // --- witness exponent perturbation over the per-term facts ---------------
  for (std::size_t i = 0; i < proof.facts.size(); ++i) {
    BooleanTermFacts& f = proof.facts[i];
    if (f.members.empty() && f.nonmembers.empty()) continue;
    if (!f.members.empty()) {
      MembershipEvidence& ev = f.membership;
      if (!ev.interval_form) {
        out.emplace_back("perturb_fact_witness", [this, &ev, i] {
          ev.flat_witness = perturb(ev.flat_witness);
          trace_.push_back({"perturb_fact_witness", i, 0});
        });
      } else if (!ev.interval.parts.empty()) {
        std::size_t p = rng_.below(ev.interval.parts.size());
        out.emplace_back("perturb_fact_chat", [this, &ev, i, p] {
          ev.interval.parts[p].chat = perturb(ev.interval.parts[p].chat);
          trace_.push_back({"perturb_fact_chat", i, p});
        });
      }
    }
    if (!f.nonmembers.empty()) {
      // Claim one more doc absent without extending the aggregated witness.
      out.emplace_back("extend_nonmember_facts", [this, &boolean, &f, i] {
        std::uint64_t fake = boolean.docs.empty() ? 1 : boolean.docs.back() + 1;
        f.nonmembers.insert(
            std::lower_bound(f.nonmembers.begin(), f.nonmembers.end(), fake), fake);
        trace_.push_back({"extend_nonmember_facts", i, fake});
      });
    }
    break;  // one facts-tamper target is enough per response
  }

  // --- guard-count lie: shrink a guard's member facts ----------------------
  for (std::uint32_t g : proof.guards) {
    BooleanTermFacts& f = proof.facts[g];
    if (f.members.empty()) continue;
    out.emplace_back("shrink_guard_members", [this, &f, g] {
      f.members.pop_back();
      trace_.push_back({"shrink_guard_members", g, f.members.size()});
    });
    break;
  }

  // --- drop a guard entirely ------------------------------------------------
  // Only registered when the drop is provably falsifying: either the
  // remaining guards no longer cover the expression, or the check set no
  // longer equals the shrunken candidate universe minus S.  (A structurally
  // redundant guard over a subset posting list could otherwise drop cleanly.)
  if (!proof.guards.empty()) {
    std::vector<std::string> remaining_names;
    U64Set remaining_candidates;
    for (std::size_t gi = 0; gi + 1 < proof.guards.size(); ++gi) {
      remaining_names.push_back(boolean.terms[proof.guards[gi]]);
      remaining_candidates =
          set_union(remaining_candidates, proof.facts[proof.guards[gi]].members);
    }
    std::vector<std::string> unknown_names;
    for (const auto& u : proof.unknowns) unknown_names.push_back(u.term);
    const bool still_covered =
        guards_cover(boolean.expr, remaining_names, unknown_names);
    const bool check_set_closes =
        set_difference(remaining_candidates, boolean.docs) == boolean.check_docs;
    if (!still_covered || !check_set_closes) {
      out.emplace_back("drop_guard", [this, &proof] {
        std::uint64_t g = proof.guards.back();
        proof.guards.pop_back();
        trace_.push_back({"drop_guard", g, 0});
      });
    }
  }

  // --- move a doc across the S/C boundary ----------------------------------
  if (!boolean.docs.empty()) {
    std::size_t k = rng_.below(boolean.docs.size());
    out.emplace_back("demote_result_doc", [this, &boolean, k] {
      std::uint64_t d = boolean.docs[k];
      boolean.docs.erase(boolean.docs.begin() + static_cast<std::ptrdiff_t>(k));
      boolean.check_docs.insert(
          std::lower_bound(boolean.check_docs.begin(), boolean.check_docs.end(), d), d);
      trace_.push_back({"demote_result_doc", d, 0});
    });
  }
  if (!boolean.check_docs.empty()) {
    std::size_t k = rng_.below(boolean.check_docs.size());
    out.emplace_back("promote_check_doc", [this, &boolean, k] {
      std::uint64_t d = boolean.check_docs[k];
      boolean.check_docs.erase(boolean.check_docs.begin() + static_cast<std::ptrdiff_t>(k));
      boolean.docs.insert(std::lower_bound(boolean.docs.begin(), boolean.docs.end(), d), d);
      trace_.push_back({"promote_check_doc", d, 0});
    });
  }

  // --- tuple weight tamper --------------------------------------------------
  for (std::size_t i = 0; i < boolean.postings.size(); ++i) {
    if (boolean.postings[i].empty()) continue;
    std::size_t k = rng_.below(boolean.postings[i].size());
    out.emplace_back("inflate_bool_tf", [this, &boolean, i, k] {
      boolean.postings[i][k].tf += 7;
      trace_.push_back({"inflate_bool_tf", i, k});
    });
    break;
  }

  // --- top-k claim tamper ---------------------------------------------------
  if (boolean.ranked.size() >= 2) {
    out.emplace_back("swap_ranked_entries", [this, &boolean] {
      std::swap(boolean.ranked[0], boolean.ranked[1]);
      trace_.push_back({"swap_ranked_entries", 0, 1});
    });
  }
  if (!boolean.ranked.empty()) {
    out.emplace_back("inflate_ranked_score", [this, &boolean] {
      boolean.ranked[0].score += 7;
      trace_.push_back({"inflate_ranked_score", boolean.ranked[0].doc_id, 0});
    });
  }

  // --- lie about an owner-signed field -------------------------------------
  if (!proof.terms.empty()) {
    out.emplace_back("forge_bool_posting_count", [this, &proof] {
      proof.terms[0].stmt.posting_count += 1;
      trace_.push_back({"forge_bool_posting_count", 0, 0});
    });
  }
}

void ProofMutator::collect_unknown(UnknownKeywordResponse& unknown,
                                   std::vector<Mutation>& out) {
  out.emplace_back("shift_gap_lo", [this, &unknown] {
    unknown.gap.lo += "a";  // the shifted gap was never accumulated
    trace_.push_back({"shift_gap_lo", unknown.gap.lo.size(), 0});
  });
  out.emplace_back("perturb_gap_witness", [this, &unknown] {
    unknown.gap.witness = perturb(unknown.gap.witness);
    trace_.push_back({"perturb_gap_witness", 0, 0});
  });
  out.emplace_back("forge_word_count", [this, &unknown] {
    unknown.dict.stmt.word_count += 1;
    trace_.push_back({"forge_word_count", 0, 0});
  });
}

}  // namespace vc::advtest
