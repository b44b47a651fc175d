#include "proof/proof_types.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace vc {

namespace {

void write_u64set(ByteWriter& w, const U64Set& xs) {
  w.varint(xs.size());
  std::uint64_t prev = 0;
  for (std::uint64_t v : xs) {
    w.varint(v - prev);  // sets are sorted: delta-encode
    prev = v;
  }
}

U64Set read_u64set(ByteReader& r) {
  const std::size_t n = r.count(1);  // one varint delta per element
  U64Set out;
  out.reserve(n);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += r.varint();
    out.push_back(prev);
  }
  return out;
}

void write_postings(ByteWriter& w, const PostingList& list) {
  w.varint(list.size());
  std::uint32_t prev = 0;
  for (const Posting& p : list) {
    w.varint(p.doc_id - prev);
    w.varint(p.tf);
    prev = p.doc_id;
  }
}

PostingList read_postings(ByteReader& r) {
  const std::size_t n = r.count(2);  // doc delta + tf varints per posting
  PostingList out;
  out.reserve(n);
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint32_t>(r.varint());
    out.push_back(Posting{prev, static_cast<std::uint32_t>(r.varint())});
  }
  return out;
}

template <typename T>
std::size_t size_of(const T& t) {
  ByteWriter w;
  t.write(w);
  return w.size();
}

}  // namespace

const char* scheme_name(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kAccumulator: return "Accumulator";
    case SchemeKind::kBloom: return "Bloom";
    case SchemeKind::kIntervalAccumulator: return "IntervalAccumulator";
    case SchemeKind::kHybrid: return "Hybrid";
  }
  return "?";
}

SchemeKind parse_scheme(std::string_view name) {
  if (name == "hybrid") return SchemeKind::kHybrid;
  if (name == "accumulator") return SchemeKind::kAccumulator;
  if (name == "bloom") return SchemeKind::kBloom;
  if (name == "interval") return SchemeKind::kIntervalAccumulator;
  throw UsageError("unknown scheme '" + std::string(name) +
                   "' (accepted: hybrid, accumulator, bloom, interval)");
}

void SearchResult::write(ByteWriter& w) const {
  w.varint(keywords.size());
  for (const auto& k : keywords) w.str(k);
  write_u64set(w, docs);
  w.varint(postings.size());
  for (const auto& p : postings) write_postings(w, p);
}

SearchResult SearchResult::read(ByteReader& r) {
  SearchResult s;
  std::uint64_t nk = r.varint();
  for (std::uint64_t i = 0; i < nk; ++i) s.keywords.push_back(r.str());
  s.docs = read_u64set(r);
  std::uint64_t np = r.varint();
  for (std::uint64_t i = 0; i < np; ++i) s.postings.push_back(read_postings(r));
  return s;
}

std::size_t SearchResult::encoded_size() const { return size_of(*this); }

void CorrectnessProof::write(ByteWriter& w) const {
  w.varint(keywords.size());
  for (const auto& e : keywords) e.write(w);
}

CorrectnessProof CorrectnessProof::read(ByteReader& r) {
  CorrectnessProof p;
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) p.keywords.push_back(MembershipEvidence::read(r));
  return p;
}

std::size_t CorrectnessProof::encoded_size() const { return size_of(*this); }

void NonmembershipGroup::write(ByteWriter& w) const {
  w.u32(keyword);
  write_u64set(w, docs);
  evidence.write(w);
}

NonmembershipGroup NonmembershipGroup::read(ByteReader& r) {
  NonmembershipGroup g;
  g.keyword = r.u32();
  g.docs = read_u64set(r);
  g.evidence = NonmembershipEvidence::read(r);
  return g;
}

void AccumulatorIntegrity::write(ByteWriter& w) const {
  w.u32(base_keyword);
  write_u64set(w, check_docs);
  check_membership.write(w);
  w.varint(groups.size());
  for (const auto& g : groups) g.write(w);
}

AccumulatorIntegrity AccumulatorIntegrity::read(ByteReader& r) {
  AccumulatorIntegrity a;
  a.base_keyword = r.u32();
  a.check_docs = read_u64set(r);
  a.check_membership = MembershipEvidence::read(r);
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) a.groups.push_back(NonmembershipGroup::read(r));
  return a;
}

std::size_t AccumulatorIntegrity::encoded_size() const { return size_of(*this); }

void BloomKeywordPart::write(ByteWriter& w) const {
  bloom.write(w);
  write_u64set(w, check_elements);
  check_membership.write(w);
}

BloomKeywordPart BloomKeywordPart::read(ByteReader& r) {
  BloomKeywordPart p;
  p.bloom = BloomAttestation::read(r);
  p.check_elements = read_u64set(r);
  p.check_membership = MembershipEvidence::read(r);
  return p;
}

void BloomIntegrity::write(ByteWriter& w) const {
  w.varint(parts.size());
  for (const auto& p : parts) p.write(w);
}

BloomIntegrity BloomIntegrity::read(ByteReader& r) {
  BloomIntegrity b;
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) b.parts.push_back(BloomKeywordPart::read(r));
  return b;
}

std::size_t BloomIntegrity::encoded_size() const { return size_of(*this); }

void QueryProof::write(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(scheme));
  w.varint(terms.size());
  for (const auto& t : terms) t.write(w);
  correctness.write(w);
  w.u8(static_cast<std::uint8_t>(integrity.index()));
  std::visit([&w](const auto& p) { p.write(w); }, integrity);
}

QueryProof QueryProof::read(ByteReader& r) {
  QueryProof p;
  std::uint8_t s = r.u8();
  if (s > 3) throw ParseError("bad scheme tag");
  p.scheme = static_cast<SchemeKind>(s);
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) p.terms.push_back(TermAttestation::read(r));
  p.correctness = CorrectnessProof::read(r);
  std::uint8_t kind = r.u8();
  if (kind == 0) {
    p.integrity = AccumulatorIntegrity::read(r);
  } else if (kind == 1) {
    p.integrity = BloomIntegrity::read(r);
  } else {
    throw ParseError("bad integrity tag");
  }
  return p;
}

std::size_t QueryProof::encoded_size() const { return size_of(*this); }

void BooleanTermFacts::write(ByteWriter& w) const {
  write_u64set(w, members);
  membership.write(w);
  write_u64set(w, nonmembers);
  if (!nonmembers.empty()) nonmembership.write(w);
}

BooleanTermFacts BooleanTermFacts::read(ByteReader& r) {
  BooleanTermFacts f;
  f.members = read_u64set(r);
  f.membership = MembershipEvidence::read(r);
  f.nonmembers = read_u64set(r);
  if (!f.nonmembers.empty()) f.nonmembership = NonmembershipEvidence::read(r);
  return f;
}

void UnknownTermProof::write(ByteWriter& w) const {
  w.str(term);
  gap.write(w);
}

UnknownTermProof UnknownTermProof::read(ByteReader& r) {
  UnknownTermProof u;
  u.term = r.str();
  u.gap = GapProof::read(r);
  return u;
}

void BooleanProof::write(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(scheme));
  w.varint(terms.size());
  for (const auto& t : terms) t.write(w);
  w.varint(guards.size());
  for (std::uint32_t g : guards) w.varint(g);
  w.varint(facts.size());
  for (const auto& f : facts) f.write(w);
  correctness.write(w);
  w.varint(unknowns.size());
  for (const auto& u : unknowns) u.write(w);
  if (!unknowns.empty()) dict.write(w);
}

BooleanProof BooleanProof::read(ByteReader& r) {
  BooleanProof p;
  std::uint8_t s = r.u8();
  if (s > 3) throw ParseError("bad scheme tag");
  p.scheme = static_cast<SchemeKind>(s);
  std::uint64_t nt = r.varint();
  for (std::uint64_t i = 0; i < nt; ++i) p.terms.push_back(TermAttestation::read(r));
  std::uint64_t ng = r.varint();
  for (std::uint64_t i = 0; i < ng; ++i) {
    p.guards.push_back(static_cast<std::uint32_t>(r.varint()));
  }
  std::uint64_t nf = r.varint();
  for (std::uint64_t i = 0; i < nf; ++i) p.facts.push_back(BooleanTermFacts::read(r));
  p.correctness = CorrectnessProof::read(r);
  std::uint64_t nu = r.varint();
  for (std::uint64_t i = 0; i < nu; ++i) p.unknowns.push_back(UnknownTermProof::read(r));
  if (!p.unknowns.empty()) p.dict = DictAttestation::read(r);
  return p;
}

std::size_t BooleanProof::encoded_size() const { return size_of(*this); }

std::vector<TopKEntry> topk_by_tf(const U64Set& docs,
                                  const std::vector<PostingList>& postings,
                                  std::uint32_t k) {
  std::vector<TopKEntry> entries;
  entries.reserve(docs.size());
  for (std::uint64_t d : docs) {
    entries.push_back(TopKEntry{static_cast<std::uint32_t>(d), 0});
  }
  for (const PostingList& list : postings) {
    for (const Posting& p : list) {
      auto it = std::lower_bound(entries.begin(), entries.end(), p.doc_id,
                                 [](const TopKEntry& e, std::uint32_t d) { return e.doc_id < d; });
      if (it != entries.end() && it->doc_id == p.doc_id) it->score += p.tf;
    }
  }
  std::stable_sort(entries.begin(), entries.end(), [](const TopKEntry& a, const TopKEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

namespace {

void write_boolean_body(ByteWriter& w, const BooleanQueryResponse& b) {
  b.expr.write(w);
  w.varint(b.terms.size());
  for (const auto& t : b.terms) w.str(t);
  write_u64set(w, b.docs);
  w.varint(b.postings.size());
  for (const auto& p : b.postings) write_postings(w, p);
  write_u64set(w, b.check_docs);
  w.u32(b.top_k);
  w.varint(b.ranked.size());
  for (const TopKEntry& e : b.ranked) {
    w.u32(e.doc_id);
    w.u64(e.score);
  }
  b.proof.write(w);
}

BooleanQueryResponse read_boolean_body(ByteReader& r) {
  BooleanQueryResponse b;
  b.expr = BoolNode::read(r);
  std::uint64_t nt = r.varint();
  for (std::uint64_t i = 0; i < nt; ++i) b.terms.push_back(r.str());
  b.docs = read_u64set(r);
  std::uint64_t np = r.varint();
  for (std::uint64_t i = 0; i < np; ++i) b.postings.push_back(read_postings(r));
  b.check_docs = read_u64set(r);
  b.top_k = r.u32();
  std::uint64_t nr = r.varint();
  for (std::uint64_t i = 0; i < nr; ++i) {
    TopKEntry e;
    e.doc_id = r.u32();
    e.score = r.u64();
    b.ranked.push_back(e);
  }
  b.proof = BooleanProof::read(r);
  return b;
}

}  // namespace

Bytes SearchResponse::payload_bytes() const {
  ByteWriter w;
  // Tag and body index pin each other in both directions so a signature
  // over one wire version can never be replayed as the other.
  w.str(body.index() == 3 ? "vc.response.v6" : "vc.response.v5");
  w.u64(query_id);
  w.u64(epoch);
  w.u64(trace_id);
  w.varint(raw_keywords.size());
  for (const auto& k : raw_keywords) w.str(k);
  w.u8(static_cast<std::uint8_t>(body.index()));
  if (const auto* multi = std::get_if<MultiKeywordResponse>(&body)) {
    multi->result.write(w);
    multi->proof.write(w);
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&body)) {
    w.str(single->keyword);
    write_postings(w, single->postings);
    single->attestation.write(w);
  } else if (const auto* unknown = std::get_if<UnknownKeywordResponse>(&body)) {
    w.str(unknown->keyword);
    unknown->gap.write(w);
    unknown->dict.write(w);
  } else {
    write_boolean_body(w, std::get<BooleanQueryResponse>(body));
  }
  return std::move(w).take();
}

std::size_t SearchResponse::proof_size_bytes() const {
  // Everything the cloud sends *beyond* the result data itself: the paper's
  // proof-size metric (Fig 6).
  std::size_t size = cloud_sig.encoded_size();
  if (const auto* multi = std::get_if<MultiKeywordResponse>(&body)) {
    size += multi->proof.encoded_size();
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&body)) {
    size += single->attestation.encoded_size();
  } else if (const auto* unknown = std::get_if<UnknownKeywordResponse>(&body)) {
    size += unknown->gap.encoded_size() + unknown->dict.encoded_size();
  } else {
    size += std::get<BooleanQueryResponse>(body).proof.encoded_size();
  }
  return size;
}

void SearchResponse::write(ByteWriter& w) const {
  Bytes payload = payload_bytes();
  w.bytes(payload);
  cloud_sig.write(w);
}

SearchResponse SearchResponse::read(ByteReader& r) {
  Bytes payload = r.bytes();
  ByteReader pr(payload);
  std::string tag = pr.str();
  const bool boolean = tag == "vc.response.v6";
  if (!boolean && tag != "vc.response.v5") throw ParseError("bad response tag");
  SearchResponse resp;
  resp.query_id = pr.u64();
  resp.epoch = pr.u64();
  resp.trace_id = pr.u64();
  std::uint64_t nk = pr.varint();
  for (std::uint64_t i = 0; i < nk; ++i) resp.raw_keywords.push_back(pr.str());
  std::uint8_t kind = pr.u8();
  if (boolean != (kind == 3)) throw ParseError("response tag does not match body kind");
  if (kind == 0) {
    MultiKeywordResponse multi;
    multi.result = SearchResult::read(pr);
    multi.proof = QueryProof::read(pr);
    resp.body = std::move(multi);
  } else if (kind == 1) {
    SingleKeywordResponse single;
    single.keyword = pr.str();
    single.postings = read_postings(pr);
    single.attestation = TermAttestation::read(pr);
    resp.body = std::move(single);
  } else if (kind == 2) {
    UnknownKeywordResponse unknown;
    unknown.keyword = pr.str();
    unknown.gap = GapProof::read(pr);
    unknown.dict = DictAttestation::read(pr);
    resp.body = std::move(unknown);
  } else if (kind == 3) {
    resp.body = read_boolean_body(pr);
  } else {
    throw ParseError("bad response body tag");
  }
  pr.expect_done();
  resp.cloud_sig = Signature::read(r);
  return resp;
}

}  // namespace vc
