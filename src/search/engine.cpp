#include "search/engine.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/errors.hpp"
#include "support/stopwatch.hpp"
#include "text/tokenizer.hpp"

namespace vc {

Bytes Query::encode() const {
  ByteWriter w;
  write(w);
  return std::move(w).take();
}

void Query::write(ByteWriter& w) const {
  // A query with no boolean extension encodes byte-identically to wire v2,
  // so legacy signatures and fixtures stay valid.
  const bool v3 = expr.has_value() || top_k != 0;
  w.str(v3 ? "vc.query.v3" : "vc.query.v2");
  w.u64(id);
  w.varint(keywords.size());
  for (const auto& k : keywords) w.str(k);
  w.u64(trace_id);
  if (v3) {
    w.u32(top_k);
    w.u8(expr.has_value() ? 1 : 0);
    if (expr.has_value()) expr->write(w);
  }
}

Query Query::read(ByteReader& r) {
  std::string tag = r.str();
  const bool v3 = tag == "vc.query.v3";
  if (!v3 && tag != "vc.query.v2") throw ParseError("bad query tag");
  Query q;
  q.id = r.u64();
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) q.keywords.push_back(r.str());
  q.trace_id = r.u64();
  if (v3) {
    q.top_k = r.u32();
    if (r.u8() != 0) q.expr = BoolNode::read(r);
    if (!q.expr.has_value() && q.top_k == 0) {
      throw ParseError("v3 query without boolean extension");
    }
  }
  return q;
}

SearchEngine::SearchEngine(SnapshotPtr snapshot, AccumulatorContext cloud_ctx,
                           SigningKey cloud_key, ThreadPool* pool)
    : snap_(std::move(snapshot)),
      ctx_(std::move(cloud_ctx)),
      cloud_key_(std::move(cloud_key)),
      prover_(snap_, ctx_, pool) {}

SearchEngine::Classified SearchEngine::classify(
    const std::vector<std::string>& keywords) const {
  if (keywords.empty()) throw UsageError("empty query");
  Classified c;
  for (const auto& raw : keywords) {
    std::string norm = normalize_term(raw);
    if (norm.empty()) continue;  // punctuation-only keyword
    if (std::find(c.known.begin(), c.known.end(), norm) != c.known.end()) continue;
    if (std::find(c.unknown.begin(), c.unknown.end(), norm) != c.unknown.end()) continue;
    if (snap_->find(norm) != nullptr) {
      c.known.push_back(norm);
    } else {
      c.unknown.push_back(norm);
    }
  }
  if (c.known.empty() && c.unknown.empty()) {
    throw UsageError("query normalized to nothing");
  }
  return c;
}

SearchResult SearchEngine::intersect(const std::vector<std::string>& keywords) const {
  SearchResult result;
  result.keywords = keywords;
  std::vector<U64Set> doc_sets;
  doc_sets.reserve(keywords.size());
  for (const auto& kw : keywords) {
    doc_sets.push_back(InvertedIndex::doc_set(snap_->find(kw)->postings));
  }
  result.docs = set_intersection_many(doc_sets);
  result.postings.reserve(keywords.size());
  for (const auto& kw : keywords) {
    result.postings.push_back(
        InvertedIndex::filter_by_docs(snap_->find(kw)->postings, result.docs));
  }
  return result;
}

namespace {

// True when the query needs the boolean (wire v4) response path: any OR/NOT
// in the expression, or a top-k request.  A pure-conjunction expression with
// no top-k routes through the legacy paths, byte-identical to a v2 query
// over the same keywords.
bool wants_boolean(const Query& query) {
  if (query.top_k != 0) return true;
  return query.expr.has_value() && !is_pure_conjunction(*query.expr);
}

// The effective expression: the query's own, or the conjunction of its
// keyword list (how a plain top-k query enters the boolean path).
BoolNode effective_expr(const Query& query) {
  if (query.expr.has_value()) return *query.expr;
  BoolNode node;
  if (query.keywords.size() == 1) {
    node.term = query.keywords[0];
    return node;
  }
  node.kind = BoolNode::Kind::kAnd;
  for (const auto& k : query.keywords) {
    BoolNode leaf;
    leaf.term = k;
    node.children.push_back(std::move(leaf));
  }
  return node;
}

}  // namespace

BooleanQueryResponse SearchEngine::evaluate_boolean(
    const Query& query, std::vector<std::string>& unknowns) const {
  BooleanQueryResponse body;
  body.top_k = query.top_k;
  body.expr = normalize_query(effective_expr(query));

  Classified c = classify(leaf_terms_in_order(body.expr));
  std::sort(c.known.begin(), c.known.end());
  std::sort(c.unknown.begin(), c.unknown.end());
  body.terms = std::move(c.known);
  unknowns = std::move(c.unknown);

  std::vector<const IndexEntry*> entries;
  std::vector<U64Set> doc_sets;
  entries.reserve(body.terms.size());
  doc_sets.reserve(body.terms.size());
  for (const auto& t : body.terms) {
    entries.push_back(snap_->find(t));
    doc_sets.push_back(InvertedIndex::doc_set(entries.back()->postings));
  }
  auto term_index = [&](const std::string& t) -> std::ptrdiff_t {
    auto it = std::lower_bound(body.terms.begin(), body.terms.end(), t);
    if (it == body.terms.end() || *it != t) return -1;
    return it - body.terms.begin();
  };

  // The positive-guard restriction: reject any query whose satisfiers are
  // not bounded by disclosed posting lists (e.g. a bare NOT).
  auto posting_count = [&](const std::string& t) -> std::optional<std::uint64_t> {
    std::ptrdiff_t i = term_index(t);
    if (i < 0) return std::nullopt;
    return entries[static_cast<std::size_t>(i)]->postings.size();
  };
  std::optional<std::vector<std::string>> guards = guard_terms(body.expr, posting_count);
  if (!guards.has_value()) {
    throw UsageError(
        "query is not positive-guarded: every satisfier must fall under some "
        "known keyword (e.g. 'a AND NOT b', never a bare 'NOT b')");
  }

  // Candidate universe = the guard terms' document sets; split it into
  // satisfiers S and check docs C by evaluating against the real sets.
  U64Set candidates;
  for (const auto& g : *guards) {
    candidates = set_union(candidates, doc_sets[static_cast<std::size_t>(term_index(g))]);
  }
  auto satisfies = [&](std::uint64_t d) {
    return eval_query(body.expr, [&](const std::string& term) {
             std::ptrdiff_t i = term_index(term);
             if (i < 0) return Truth::kFalse;  // dictionary-absent: empty set
             const U64Set& s = doc_sets[static_cast<std::size_t>(i)];
             return std::binary_search(s.begin(), s.end(), d) ? Truth::kTrue
                                                              : Truth::kFalse;
           }) == Truth::kTrue;
  };
  for (std::uint64_t d : candidates) {
    (satisfies(d) ? body.docs : body.check_docs).push_back(d);
  }

  body.postings.reserve(entries.size());
  for (const auto* e : entries) {
    body.postings.push_back(InvertedIndex::filter_by_docs(e->postings, body.docs));
  }
  if (body.top_k != 0) {
    body.ranked = topk_by_tf(body.docs, body.postings, body.top_k);
  }
  return body;
}

SearchResult SearchEngine::execute_only(const Query& query) const {
  if (wants_boolean(query)) {
    std::vector<std::string> unknowns;
    BooleanQueryResponse body = evaluate_boolean(query, unknowns);
    SearchResult r;
    r.keywords = std::move(body.terms);
    r.docs = std::move(body.docs);
    r.postings = std::move(body.postings);
    return r;
  }
  Classified c = classify(query.expr.has_value() ? leaf_terms_in_order(*query.expr)
                                                 : query.keywords);
  if (!c.unknown.empty() || c.known.size() < 2) {
    SearchResult r;
    r.keywords = c.known;
    if (c.unknown.empty() && c.known.size() == 1) {
      r.postings.push_back(snap_->find(c.known[0])->postings);
      r.docs = InvertedIndex::doc_set(r.postings[0]);
    }
    return r;
  }
  return intersect(c.known);
}

SearchResponse SearchEngine::search(const Query& query, SchemeKind scheme) const {
  // Top of the per-query span tree: "query" encloses "search_exec",
  // "prove" (with its witness stages beneath) and "serialize".
  static obs::Histogram& query_stage = obs::MetricsRegistry::global().stage("query");
  static obs::Histogram& exec_stage = obs::MetricsRegistry::global().stage("search_exec");
  static obs::Histogram& ser_stage = obs::MetricsRegistry::global().stage("serialize");
  obs::Span query_span(query_stage, "query");
  obs::trace_attr("epoch", static_cast<std::int64_t>(snap_->epoch()));
  obs::trace_attr("terms", static_cast<std::int64_t>(query.keywords.size()));
  obs::trace_attr("scheme", scheme_name(scheme));

  SearchResponse resp;
  resp.query_id = query.id;
  resp.trace_id = query.trace_id;
  resp.epoch = snap_->epoch();
  resp.raw_keywords = query.keywords;

  Stopwatch sw;
  // The exec span covers classify + intersect and closes where the legacy
  // search_seconds stopwatch stops, so both report the same phase.
  std::optional<obs::Span> exec_span(std::in_place, exec_stage, "search_exec");

  if (wants_boolean(query)) {
    std::vector<std::string> unknowns;
    BooleanQueryResponse body = evaluate_boolean(query, unknowns);
    resp.search_seconds = sw.seconds();
    exec_span.reset();
    sw.reset();
    prover_.prove_boolean(body, unknowns, scheme);
    resp.proof_seconds = sw.seconds();
    resp.body = std::move(body);
    obs::Span ser_span(ser_stage, "serialize");
    resp.cloud_sig = cloud_key_.sign(resp.payload_bytes());
    return resp;
  }

  Classified c = classify(query.expr.has_value() ? leaf_terms_in_order(*query.expr)
                                                 : query.keywords);

  if (!c.unknown.empty()) {
    // §III-D4: any unknown keyword empties the intersection; the proof is
    // the pre-computed gap witness — O(log |W|) lookup.
    resp.search_seconds = sw.seconds();
    exec_span.reset();
    sw.reset();
    UnknownKeywordResponse body;
    body.keyword = c.unknown.front();
    body.gap = snap_->dictionary().prove_unknown(body.keyword);
    body.dict = snap_->dict_attestation();
    resp.body = std::move(body);
    resp.proof_seconds = sw.seconds();
  } else if (c.known.size() == 1) {
    // §III-D5: single keyword — the owner's signature is the proof.
    const auto* entry = snap_->find(c.known[0]);
    resp.search_seconds = sw.seconds();
    exec_span.reset();
    sw.reset();
    SingleKeywordResponse body;
    body.keyword = c.known[0];
    body.postings = entry->postings;
    body.attestation = entry->attestation;
    resp.body = std::move(body);
    resp.proof_seconds = sw.seconds();
  } else {
    MultiKeywordResponse body;
    body.result = intersect(c.known);
    resp.search_seconds = sw.seconds();
    exec_span.reset();
    sw.reset();
    body.proof = prover_.prove(body.result, scheme);
    resp.proof_seconds = sw.seconds();
    resp.body = std::move(body);
  }
  {
    obs::Span ser_span(ser_stage, "serialize");
    resp.cloud_sig = cloud_key_.sign(resp.payload_bytes());
  }
  return resp;
}

}  // namespace vc
