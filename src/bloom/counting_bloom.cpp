#include "bloom/counting_bloom.hpp"

#include <algorithm>
#include <cmath>

#include "hash/hmac.hpp"
#include "support/errors.hpp"

namespace vc {

void BloomParams::write(ByteWriter& w) const {
  w.u32(counters);
  w.u32(hashes);
  w.str(domain);
}

BloomParams BloomParams::read(ByteReader& r) {
  BloomParams p;
  p.counters = r.u32();
  p.hashes = r.u32();
  p.domain = r.str();
  return p;
}

CountingBloom::CountingBloom(BloomParams params)
    : params_(std::move(params)), hmac_(params_.domain) {
  if (params_.counters == 0) throw UsageError("Bloom filter needs at least one counter");
  if (params_.hashes == 0) throw UsageError("Bloom filter needs at least one hash");
  counters_.assign(params_.counters, 0);
}

CountingBloom CountingBloom::from_set(BloomParams params,
                                      std::span<const std::uint64_t> elements) {
  CountingBloom b(std::move(params));
  for (std::uint64_t e : elements) b.add(e);
  return b;
}

std::vector<std::uint32_t> CountingBloom::positions(std::uint64_t element) const {
  // One HMAC invocation yields up to eight 32-bit slot indices; extend with
  // a counter if k > 8 (never in practice: the paper uses k = 1).
  std::vector<std::uint32_t> out;
  out.reserve(params_.hashes);
  // HMAC message: u64le(element) || u32le(block).
  std::uint8_t msg[12];
  for (int i = 0; i < 8; ++i) msg[i] = static_cast<std::uint8_t>(element >> (8 * i));
  for (std::uint32_t block = 0; out.size() < params_.hashes; ++block) {
    for (int i = 0; i < 4; ++i) msg[8 + i] = static_cast<std::uint8_t>(block >> (8 * i));
    const Digest d = hmac_.mac(msg);
    for (std::size_t i = 0; i + 4 <= d.size() && out.size() < params_.hashes; i += 4) {
      std::uint32_t v = static_cast<std::uint32_t>(d[i]) << 24 |
                        static_cast<std::uint32_t>(d[i + 1]) << 16 |
                        static_cast<std::uint32_t>(d[i + 2]) << 8 |
                        static_cast<std::uint32_t>(d[i + 3]);
      out.push_back(v % params_.counters);
    }
  }
  return out;
}

void CountingBloom::add(std::uint64_t element) {
  for (std::uint32_t j : positions(element)) counters_[j] += 1;
  elements_added_ += 1;
}

void CountingBloom::remove(std::uint64_t element) {
  auto pos = positions(element);
  for (std::uint32_t j : pos) {
    if (counters_[j] == 0) throw CryptoError("Bloom remove: counter underflow");
  }
  for (std::uint32_t j : pos) counters_[j] -= 1;
  elements_added_ -= 1;
}

double CountingBloom::load() const {
  return static_cast<double>(params_.hashes) * static_cast<double>(elements_added_) /
         static_cast<double>(params_.counters);
}

namespace {

const BloomParams& shared_params(std::span<const CountingBloom> filters) {
  if (filters.empty()) throw UsageError("Bloom slot rule needs at least one filter");
  for (const CountingBloom& f : filters) {
    if (!(f.params() == filters[0].params())) {
      throw UsageError("Bloom slot rule: parameter mismatch");
    }
  }
  return filters[0].params();
}

// B̂_j: the element-wise minimum over every filter.
std::uint32_t min_counter(std::span<const CountingBloom> filters, std::uint32_t j) {
  std::uint32_t bhat = filters[0].counter(j);
  for (const CountingBloom& f : filters.subspan(1)) bhat = std::min(bhat, f.counter(j));
  return bhat;
}

}  // namespace

CheckSlots::CheckSlots(std::span<const CountingBloom> filters,
                       std::span<const std::uint64_t> intersection)
    : probe_(shared_params(filters)),
      intersection_(intersection.begin(), intersection.end()),
      open_(probe_.params().counters, false) {
  CountingBloom bx = CountingBloom::from_set(probe_.params(), intersection);
  for (std::uint32_t j = 0; j < open_.size(); ++j) {
    open_[j] = bx.counter(j) < min_counter(filters, j);
  }
}

std::vector<std::uint64_t> CheckSlots::select(std::span<const std::uint64_t> set) const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t e : set) {
    if (std::binary_search(intersection_.begin(), intersection_.end(), e)) continue;
    for (std::uint32_t j : probe_.positions(e)) {
      if (open_[j]) {
        out.push_back(e);
        break;
      }
    }
  }
  return out;
}

SlotAccounting check_slot_accounting(std::span<const CountingBloom> filters,
                                     std::span<const std::uint64_t> intersection,
                                     std::span<const std::span<const std::uint64_t>> check_sets) {
  const BloomParams& params = shared_params(filters);
  if (check_sets.size() != filters.size()) {
    throw UsageError("Bloom slot accounting needs one check set per filter");
  }
  CountingBloom bx = CountingBloom::from_set(params, intersection);
  std::vector<CountingBloom> checks;
  checks.reserve(check_sets.size());
  for (auto c : check_sets) checks.push_back(CountingBloom::from_set(params, c));
  for (std::uint32_t j = 0; j < params.counters; ++j) {
    const std::uint32_t bhat = min_counter(filters, j);
    if (bx.counter(j) > bhat) return SlotAccounting::kResultExceedsFilters;
    if (bx.counter(j) == bhat) continue;  // slot fully explained by X
    for (std::size_t i = 0; i < filters.size(); ++i) {
      if (bx.counter(j) + checks[i].counter(j) != filters[i].counter(j)) {
        return SlotAccounting::kGapNotClosed;
      }
    }
  }
  return SlotAccounting::kHolds;
}

double poisson_entropy_bits(double load) {
  if (load <= 0) return 0.0;
  // H(l) = -Σ p_k log2 p_k with p_k = e^{-l} l^k / k!; sum until the tail
  // contribution vanishes.
  double h = 0.0;
  double p = std::exp(-load);  // p_0
  double cumulative = 0.0;
  for (int k = 0; k < 4096; ++k) {
    if (p > 0) h -= p * std::log2(p);
    cumulative += p;
    if (1.0 - cumulative < 1e-12 && k > load) break;
    p = p * load / static_cast<double>(k + 1);
  }
  return h;
}

}  // namespace vc
