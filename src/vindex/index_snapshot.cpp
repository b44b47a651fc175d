#include "vindex/index_snapshot.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace vc {

void VerifiableIndexConfig::validate() const {
  if (rep_bits < 32) throw UsageError("rep_bits must be >= 32");
  if (modulus_bits % 2 != 0 || modulus_bits > 4096) {
    throw UsageError("modulus_bits must be even and <= 4096");
  }
  if (rep_bits > modulus_bits || 2 * rep_bits + 4 > modulus_bits) {  // no wrap
    throw UsageError("rep_bits must satisfy 2*rep_bits + 4 <= modulus_bits");
  }
  if (interval_size < 1) throw UsageError("interval_size must be >= 1");
}

void VerifiableIndexConfig::write(ByteWriter& w) const {
  w.varint(modulus_bits);
  w.varint(rep_bits);
  w.varint(interval_size);
  bloom.write(w);
}

VerifiableIndexConfig VerifiableIndexConfig::read(ByteReader& r) {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = r.varint();
  cfg.rep_bits = r.varint();
  cfg.interval_size = r.varint();
  cfg.bloom = BloomParams::read(r);
  return cfg;
}

IndexSnapshot::IndexSnapshot(VerifiableIndexConfig config, std::uint64_t epoch,
                             EntryMap entries,
                             std::shared_ptr<const DictionaryIntervals> dict,
                             std::shared_ptr<const DictAttestation> dict_attestation,
                             std::shared_ptr<PrimeCache> tuple_primes,
                             std::shared_ptr<PrimeCache> doc_primes)
    : config_(config),
      epoch_(epoch),
      entries_(std::move(entries)),
      dict_(std::move(dict)),
      dict_attestation_(std::move(dict_attestation)),
      tuple_primes_(std::move(tuple_primes)),
      doc_primes_(std::move(doc_primes)) {
  for (const auto& [term, e] : entries_) {
    max_posting_count_ = std::max(max_posting_count_, e->postings.size());
  }
}

IndexSnapshot::IndexSnapshot(VerifiableIndexConfig config, std::uint64_t epoch,
                             std::vector<std::string> terms,
                             std::shared_ptr<const EntrySource> source,
                             std::size_t max_posting_count,
                             std::shared_ptr<const DictionaryIntervals> dict,
                             std::shared_ptr<const DictAttestation> dict_attestation,
                             std::shared_ptr<PrimeCache> tuple_primes,
                             std::shared_ptr<PrimeCache> doc_primes)
    : config_(config),
      epoch_(epoch),
      dict_(std::move(dict)),
      dict_attestation_(std::move(dict_attestation)),
      tuple_primes_(std::move(tuple_primes)),
      doc_primes_(std::move(doc_primes)),
      max_posting_count_(max_posting_count),
      source_(std::move(source)) {
  for (std::string& t : terms) entries_.emplace(std::move(t), nullptr);
  lazy_terms_.reserve(entries_.size());
  for (const auto& [term, e] : entries_) lazy_terms_.push_back(term);
  lazy_slots_ = std::make_unique<LazySlot[]>(lazy_terms_.size());
}

const IndexEntry* IndexSnapshot::find(std::string_view term) const {
  if (source_ != nullptr) {
    auto it = std::lower_bound(lazy_terms_.begin(), lazy_terms_.end(), term);
    if (it == lazy_terms_.end() || *it != term) return nullptr;
    auto rank = static_cast<std::size_t>(it - lazy_terms_.begin());
    LazySlot& slot = lazy_slots_[rank];
    std::call_once(slot.once, [&] { slot.entry = source_->load(rank, *it); });
    return slot.entry.get();
  }
  auto it = entries_.find(term);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::uint64_t IndexSnapshot::warm(std::string_view term) const {
  if (source_ == nullptr) return 0;  // eager snapshots are resident already
  auto it = std::lower_bound(lazy_terms_.begin(), lazy_terms_.end(), term);
  if (it == lazy_terms_.end() || *it != term) return 0;
  auto rank = static_cast<std::size_t>(it - lazy_terms_.begin());
  LazySlot& slot = lazy_slots_[rank];
  std::call_once(slot.once, [&] { slot.entry = source_->load(rank, *it); });
  return source_->stored_bytes(rank);
}

}  // namespace vc
