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

CountingBloom::CountingBloom(BloomParams params) : params_(std::move(params)) {
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
  std::uint32_t block = 0;
  while (out.size() < params_.hashes) {
    ByteWriter w;
    w.u64(element);
    w.u32(block++);
    Digest d = hmac_sha256(params_.domain, std::string_view(reinterpret_cast<const char*>(
                                               w.data().data()), w.size()));
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

CountingBloom CountingBloom::elementwise_min(const CountingBloom& a, const CountingBloom& b) {
  if (!(a.params_ == b.params_)) throw UsageError("elementwise_min: parameter mismatch");
  CountingBloom out(a.params_);
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < out.counters_.size(); ++j) {
    out.counters_[j] = std::min(a.counters_[j], b.counters_[j]);
    sum += out.counters_[j];
  }
  out.elements_added_ = sum / a.params_.hashes;  // approximate; min is not a set
  return out;
}

CheckElements extract_check_elements(const BloomParams& params,
                                     std::span<const std::uint64_t> x1,
                                     std::span<const std::uint64_t> x2,
                                     std::span<const std::uint64_t> intersection) {
  CountingBloom b1 = CountingBloom::from_set(params, x1);
  CountingBloom b2 = CountingBloom::from_set(params, x2);
  CountingBloom bx = CountingBloom::from_set(params, intersection);
  CountingBloom bhat = CountingBloom::elementwise_min(b1, b2);

  std::vector<bool> slot_open(params.counters, false);
  for (std::uint32_t j = 0; j < params.counters; ++j) {
    slot_open[j] = bx.counter(j) < bhat.counter(j);
  }
  auto is_member = [&](std::uint64_t e) {
    return std::binary_search(intersection.begin(), intersection.end(), e);
  };
  CheckElements out;
  CountingBloom probe(params);  // reuse hashing
  for (std::uint64_t e : x1) {
    if (is_member(e)) continue;
    for (std::uint32_t j : probe.positions(e)) {
      if (slot_open[j]) {
        out.c1.push_back(e);
        break;
      }
    }
  }
  for (std::uint64_t e : x2) {
    if (is_member(e)) continue;
    for (std::uint32_t j : probe.positions(e)) {
      if (slot_open[j]) {
        out.c2.push_back(e);
        break;
      }
    }
  }
  return out;
}

bool verify_check_elements(const CountingBloom& b1, const CountingBloom& b2,
                           std::span<const std::uint64_t> intersection,
                           std::span<const std::uint64_t> c1,
                           std::span<const std::uint64_t> c2) {
  if (!(b1.params() == b2.params())) return false;
  const BloomParams& params = b1.params();
  CountingBloom bx = CountingBloom::from_set(params, intersection);
  CountingBloom bc1 = CountingBloom::from_set(params, c1);
  CountingBloom bc2 = CountingBloom::from_set(params, c2);
  for (std::uint32_t j = 0; j < params.counters; ++j) {
    std::uint32_t bhat = std::min(b1.counter(j), b2.counter(j));
    if (bx.counter(j) > bhat) return false;  // X not contained in both
    if (bx.counter(j) == bhat) continue;     // slot fully explained by X
    // Eq 8/9: the disclosed check elements must close the gap exactly.
    if (bx.counter(j) + bc1.counter(j) != b1.counter(j)) return false;
    if (bx.counter(j) + bc2.counter(j) != b2.counter(j)) return false;
  }
  return true;
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
