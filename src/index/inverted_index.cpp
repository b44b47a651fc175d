#include "index/inverted_index.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace vc {

InvertedIndex InvertedIndex::build(const Corpus& corpus, TokenizerConfig config) {
  InvertedIndex idx;
  idx.config_ = config;
  for (const Document& doc : corpus) {
    idx.add_document(doc.id, doc.text);
  }
  return idx;
}

InvertedIndex InvertedIndex::from_postings(
    std::map<std::string, PostingList, std::less<>> terms) {
  InvertedIndex idx;
  for (const auto& [term, list] : terms) {
    if (list.empty()) throw UsageError("from_postings: empty posting list for " + term);
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].doc_id <= list[i - 1].doc_id) {
        throw UsageError("from_postings: postings not sorted by docID for " + term);
      }
    }
    idx.records_ += list.size();
    idx.doc_count_ = std::max(idx.doc_count_, list.back().doc_id + 1);
  }
  idx.terms_ = std::move(terms);
  return idx;
}

std::vector<std::string> InvertedIndex::add_document(std::uint32_t doc_id,
                                                     std::string_view text) {
  std::map<std::string, std::uint32_t, std::less<>> tf;
  for (std::string& term : analyze(text, config_)) {
    tf[std::move(term)] += 1;
  }
  std::vector<std::string> touched;
  touched.reserve(tf.size());
  for (auto& [term, count] : tf) {
    PostingList& list = terms_[term];
    if (!list.empty() && list.back().doc_id >= doc_id) {
      throw UsageError("add_document: docIDs must be added in increasing order");
    }
    list.push_back(Posting{doc_id, count});
    ++records_;
    touched.push_back(term);
  }
  doc_count_ = std::max(doc_count_, doc_id + 1);
  return touched;
}

std::map<std::string, PostingList, std::less<>> InvertedIndex::remove_documents(
    std::span<const std::uint64_t> doc_ids) {
  std::map<std::string, PostingList, std::less<>> removed;
  for (auto it = terms_.begin(); it != terms_.end();) {
    PostingList& list = it->second;
    PostingList kept, gone;
    for (const Posting& p : list) {
      if (std::binary_search(doc_ids.begin(), doc_ids.end(),
                             static_cast<std::uint64_t>(p.doc_id))) {
        gone.push_back(p);
      } else {
        kept.push_back(p);
      }
    }
    if (!gone.empty()) {
      records_ -= gone.size();
      removed.emplace(it->first, std::move(gone));
      list = std::move(kept);
    }
    if (list.empty()) {
      it = terms_.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

const PostingList* InvertedIndex::find(std::string_view term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? nullptr : &it->second;
}

std::vector<std::string> InvertedIndex::dictionary() const {
  std::vector<std::string> out;
  out.reserve(terms_.size());
  for (const auto& [term, list] : terms_) out.push_back(term);
  return out;
}

U64Set InvertedIndex::doc_set(const PostingList& list) {
  U64Set out;
  out.reserve(list.size());
  for (const Posting& p : list) out.push_back(encode_doc(p.doc_id));
  return out;
}

U64Set InvertedIndex::tuple_set(const PostingList& list) {
  U64Set out;
  out.reserve(list.size());
  for (const Posting& p : list) out.push_back(encode_tuple(p));
  return out;
}

PostingList InvertedIndex::filter_by_docs(const PostingList& list,
                                          std::span<const std::uint64_t> doc_ids) {
  PostingList out;
  out.reserve(doc_ids.size());
  for (const Posting& p : list) {
    if (std::binary_search(doc_ids.begin(), doc_ids.end(), encode_doc(p.doc_id))) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace vc
