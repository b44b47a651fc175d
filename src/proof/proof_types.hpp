// Proof and response data model (§III-C, §III-E).
//
// A multi-keyword response carries the result postings, a correctness proof
// (per-keyword membership evidence on tuples), and an integrity proof in
// one of two encodings: accumulator-based (complement set + membership +
// nonmembership witnesses) or Bloom-based (signed filters + check
// elements).  Single-keyword and unknown-keyword queries use the cheap
// fallback proofs of §III-D4/D5.  Everything here has a canonical byte
// encoding: the cloud signs it, Fig 6 measures it.
#pragma once

#include <variant>

#include "interval/dict_intervals.hpp"
#include "proof/evidence.hpp"
#include "proof/query_ast.hpp"
#include "vindex/statements.hpp"

namespace vc {

// The four evaluated schemes (§V).
enum class SchemeKind : std::uint8_t {
  kAccumulator = 0,          // flat witnesses everywhere (baseline)
  kBloom = 1,                // flat correctness + Bloom integrity ([22])
  kIntervalAccumulator = 2,  // interval witnesses everywhere
  kHybrid = 3,               // interval witnesses + per-query integrity choice
};
const char* scheme_name(SchemeKind scheme);
// The scheme a command-line name selects: "hybrid", "accumulator", "bloom"
// or "interval".  Throws UsageError naming the accepted names otherwise.
SchemeKind parse_scheme(std::string_view name);
// The schemes whose correctness and accumulator integrity use interval
// witnesses, so a g-exponent spans one interval at most.
[[nodiscard]] constexpr bool uses_interval_witnesses(SchemeKind scheme) {
  return scheme == SchemeKind::kIntervalAccumulator || scheme == SchemeKind::kHybrid;
}

// --- search result ------------------------------------------------------------

struct SearchResult {
  std::vector<std::string> keywords;   // normalized known keywords
  U64Set docs;                         // S = ∩ keyword doc sets
  std::vector<PostingList> postings;   // R_i per keyword (docs ∩ keyword i)

  void write(ByteWriter& w) const;
  static SearchResult read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

// --- correctness proof ---------------------------------------------------------

struct CorrectnessProof {
  // One evidence per keyword, proving R_i's tuples ⊆ keyword i's tuple set.
  std::vector<MembershipEvidence> keywords;

  void write(ByteWriter& w) const;
  static CorrectnessProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

// --- integrity proofs ----------------------------------------------------------

// Accumulator-based (§II-C): disclose C = S_base \ S, prove C ⊆ S_base, and
// prove each element of C absent from some other keyword's set.
struct NonmembershipGroup {
  std::uint32_t keyword = 0;  // index into SearchResult::keywords
  U64Set docs;                // check docs assigned to this keyword
  NonmembershipEvidence evidence;

  void write(ByteWriter& w) const;
  static NonmembershipGroup read(ByteReader& r);
};

struct AccumulatorIntegrity {
  std::uint32_t base_keyword = 0;  // the smallest posting list (§III-C)
  U64Set check_docs;               // S_base \ S
  MembershipEvidence check_membership;  // check_docs ⊆ base doc set
  std::vector<NonmembershipGroup> groups;

  void write(ByteWriter& w) const;
  static AccumulatorIntegrity read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

// Bloom-based (§III-D2, [22]): per keyword the owner-signed filter, the
// check elements C_i ⊆ X_i \ S, and a membership witness for C_i.
struct BloomKeywordPart {
  BloomAttestation bloom;
  U64Set check_elements;
  MembershipEvidence check_membership;

  void write(ByteWriter& w) const;
  static BloomKeywordPart read(ByteReader& r);
};

struct BloomIntegrity {
  std::vector<BloomKeywordPart> parts;  // one per keyword

  void write(ByteWriter& w) const;
  static BloomIntegrity read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

using IntegrityProof = std::variant<AccumulatorIntegrity, BloomIntegrity>;

// --- the assembled query proof ---------------------------------------------------

struct QueryProof {
  SchemeKind scheme = SchemeKind::kHybrid;
  std::vector<TermAttestation> terms;  // parallel to SearchResult::keywords
  CorrectnessProof correctness;
  IntegrityProof integrity;

  void write(ByteWriter& w) const;
  static QueryProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

// --- response variants ------------------------------------------------------------

struct MultiKeywordResponse {
  SearchResult result;
  QueryProof proof;
};

// §III-D5: the whole posting list plus the owner's signature is the proof.
struct SingleKeywordResponse {
  std::string keyword;
  PostingList postings;
  TermAttestation attestation;
};

// §III-D4: gap-interval proof that the keyword is not in the dictionary.
struct UnknownKeywordResponse {
  std::string keyword;  // normalized unknown keyword
  GapProof gap;
  DictAttestation dict;
};

// --- boolean query response (wire v4) ---------------------------------------------
//
// For a boolean (OR / NOT) or top-k query the cloud discloses the satisfier
// set S, a check set C, and per-term *facts*: document sets proven in or out
// of each term's set.  The verifier re-evaluates the expression over the
// facts with Kleene semantics; guard terms disclose their full document set
// (pinned by the attested posting count), which bounds every satisfier, so
// S is provably exact — and with per-S-document completeness facts the tf
// scores are exact too, making the top-k claim checkable by recomputation.

struct BooleanTermFacts {
  U64Set members;     // docs proven ∈ X_t (⊆ S ∪ C)
  MembershipEvidence membership;
  U64Set nonmembers;  // docs proven ∉ X_t (⊆ S ∪ C)
  NonmembershipEvidence nonmembership;  // serialized only when nonmembers nonempty

  void write(ByteWriter& w) const;
  static BooleanTermFacts read(ByteReader& r);
};

// Dictionary-absent leaf term: gap proof that its satisfier set is empty.
struct UnknownTermProof {
  std::string term;
  GapProof gap;

  void write(ByteWriter& w) const;
  static UnknownTermProof read(ByteReader& r);
};

struct BooleanProof {
  SchemeKind scheme = SchemeKind::kHybrid;
  std::vector<TermAttestation> terms;  // parallel to BooleanQueryResponse::terms
  std::vector<std::uint32_t> guards;   // indices into terms; sorted, distinct
  std::vector<BooleanTermFacts> facts; // parallel to terms
  CorrectnessProof correctness;        // postings[t] tuples ⊆ term t's tuple set
  std::vector<UnknownTermProof> unknowns;  // sorted by term
  DictAttestation dict;                // serialized iff unknowns nonempty

  void write(ByteWriter& w) const;
  static BooleanProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

struct TopKEntry {
  std::uint32_t doc_id = 0;
  std::uint64_t score = 0;  // Σ_t tf(t, doc) over the query's known terms

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

// The canonical top-k claim: first min(k, |docs|) documents ordered by
// (score desc, doc_id asc).  Both prover and verifier call this, so the
// verifier's check is claim == topk_by_tf(docs, postings, k).
std::vector<TopKEntry> topk_by_tf(const U64Set& docs,
                                  const std::vector<PostingList>& postings,
                                  std::uint32_t k);

struct BooleanQueryResponse {
  BoolNode expr;                       // normalized expression
  std::vector<std::string> terms;      // known leaf terms; sorted, distinct
  U64Set docs;                         // S = exact satisfier set
  std::vector<PostingList> postings;   // per term: X_t ∩ S with tf (parallel to terms)
  U64Set check_docs;                   // C = candidate docs proven non-satisfying
  std::uint32_t top_k = 0;             // 0 = no ranking claim
  std::vector<TopKEntry> ranked;       // the top-k claim (empty iff top_k == 0)
  BooleanProof proof;
};

struct SearchResponse {
  std::uint64_t query_id = 0;
  // Epoch of the index snapshot this response was served from.  Signed with
  // the payload; the verifier rejects any attestation newer than this epoch
  // (cross-epoch proof mixing) and can optionally pin an expected epoch.
  std::uint64_t epoch = 0;
  // Echo of the query's distributed-tracing ID (0 = untraced), signed with
  // the payload so the client can tie the signed response to its trace.
  std::uint64_t trace_id = 0;
  std::vector<std::string> raw_keywords;
  std::variant<MultiKeywordResponse, SingleKeywordResponse, UnknownKeywordResponse,
               BooleanQueryResponse>
      body;
  Signature cloud_sig;  // over payload_bytes()

  // Unsigned runtime metadata (benchmark instrumentation, not serialized).
  double search_seconds = 0;
  double proof_seconds = 0;

  // The canonical bytes the cloud signs.
  [[nodiscard]] Bytes payload_bytes() const;
  // Proof bytes only (Fig 6's metric): everything except the result itself.
  [[nodiscard]] std::size_t proof_size_bytes() const;

  void write(ByteWriter& w) const;
  static SearchResponse read(ByteReader& r);
};

}  // namespace vc
