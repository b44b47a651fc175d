// Inverted index (§III-B).
//
// Maps each normalized term to its posting list of (docID, tf) tuples —
// the "set" half of the paper's verifiable index.  The accumulator layer
// consumes postings through two element encodings: the full tuple (docID,
// weight) for correctness proofs and the bare docID for integrity proofs
// (the paper keeps a second accumulator on docIDs precisely because
// integrity proofs do not care about weights).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "setops/setops.hpp"
#include "support/bytes.hpp"
#include "text/corpus.hpp"
#include "text/tokenizer.hpp"

namespace vc {

struct Posting {
  std::uint32_t doc_id = 0;
  std::uint32_t tf = 0;  // term frequency; the paper's simplest weight w

  friend bool operator==(const Posting&, const Posting&) = default;
};

using PostingList = std::vector<Posting>;  // sorted by doc_id, unique

class InvertedIndex {
 public:
  InvertedIndex() = default;

  static InvertedIndex build(const Corpus& corpus, TokenizerConfig config = {});

  // Rebuilds an index from per-term posting lists (each non-empty, sorted by
  // doc_id, unique) — what reopening a builder from a published epoch has.
  // doc_count() becomes 1 + the highest docID present.
  static InvertedIndex from_postings(std::map<std::string, PostingList, std::less<>> terms);

  // Adds one document's postings (docID must be new and larger than any
  // indexed one so lists stay sorted).  Returns the touched terms.
  std::vector<std::string> add_document(std::uint32_t doc_id, std::string_view text);

  // Removes every posting of the given (sorted) docIDs.  Returns the
  // removed postings per touched term; terms whose lists empty out are
  // erased from the index.  doc_count() does not shrink, so this index never
  // reissues a removed docID — but an index rebuilt with from_postings()
  // (a builder reopened from the store) only knows the surviving postings,
  // and docIDs above the highest surviving one may be issued again.
  std::map<std::string, PostingList, std::less<>> remove_documents(
      std::span<const std::uint64_t> doc_ids);

  [[nodiscard]] const PostingList* find(std::string_view term) const;
  [[nodiscard]] bool contains(std::string_view term) const { return find(term) != nullptr; }
  [[nodiscard]] const std::map<std::string, PostingList, std::less<>>& terms() const {
    return terms_;
  }
  [[nodiscard]] std::vector<std::string> dictionary() const;

  [[nodiscard]] std::size_t term_count() const { return terms_.size(); }
  [[nodiscard]] std::uint64_t record_count() const { return records_; }
  [[nodiscard]] std::uint32_t doc_count() const { return doc_count_; }
  [[nodiscard]] double avg_document_frequency() const {
    return terms_.empty() ? 0.0 : static_cast<double>(records_) / static_cast<double>(terms_.size());
  }

  // --- accumulator element encodings --------------------------------------
  static std::uint64_t encode_tuple(const Posting& p) {
    return static_cast<std::uint64_t>(p.doc_id) << 32 | p.tf;
  }
  static std::uint64_t encode_doc(std::uint32_t doc_id) { return doc_id; }
  static U64Set doc_set(const PostingList& list);
  static U64Set tuple_set(const PostingList& list);
  // Postings for a subset of docIDs (result assembly).
  static PostingList filter_by_docs(const PostingList& list,
                                    std::span<const std::uint64_t> doc_ids);

  friend bool operator==(const InvertedIndex&, const InvertedIndex&) = default;

 private:
  std::map<std::string, PostingList, std::less<>> terms_;
  std::uint64_t records_ = 0;
  std::uint32_t doc_count_ = 0;
  TokenizerConfig config_;
};

}  // namespace vc
