#include "bloom/compressed_bloom.hpp"

#include <cmath>

#include "bloom/arith_coder.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {
// Counter symbols 0..254 are literal; 255 escapes to a varint suffix.
constexpr std::uint32_t kEscape = 255;
constexpr std::uint32_t kAlphabet = 256;
}  // namespace

std::size_t CompressedBloom::byte_size() const { return payload.size(); }

void CompressedBloom::write(ByteWriter& w) const {
  params.write(w);
  w.u64(element_count);
  w.bytes(payload);
}

CompressedBloom CompressedBloom::read(ByteReader& r) {
  CompressedBloom c;
  c.params = BloomParams::read(r);
  c.element_count = r.u64();
  c.payload = r.bytes();
  return c;
}

std::size_t CompressedBloom::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

CompressedBloom compress_bloom(const CountingBloom& filter) {
  ArithEncoder enc;
  AdaptiveModel model(kAlphabet);
  ByteWriter escapes;
  for (std::uint32_t c : filter.counters()) {
    if (c < kEscape) {
      model.encode(enc, c);
    } else {
      model.encode(enc, kEscape);
      escapes.varint(c);
    }
  }
  CompressedBloom out;
  out.params = filter.params();
  out.element_count = filter.element_count();
  Bytes coded = enc.finish();
  ByteWriter payload;
  payload.bytes(coded);
  payload.raw(escapes.data());
  out.payload = std::move(payload).take();
  return out;
}

CountingBloom decompress_bloom(const CompressedBloom& compressed) {
  ByteReader payload(compressed.payload);
  auto coded = payload.bytes_view();
  ArithDecoder dec(coded);
  AdaptiveModel model(kAlphabet);
  CountingBloom filter(compressed.params);
  std::vector<std::uint32_t>& counters = filter.counters_;
  std::vector<std::size_t> escape_slots;
  for (std::size_t j = 0; j < counters.size(); ++j) {
    counters[j] = model.decode(dec);
    if (counters[j] == kEscape) escape_slots.push_back(j);
  }
  for (std::size_t j : escape_slots) {
    std::uint64_t v = payload.varint();
    if (v < kEscape || v > ~std::uint32_t{0}) throw ParseError("bad escaped counter");
    counters[j] = static_cast<std::uint32_t>(v);
  }
  payload.expect_done();
  filter.elements_added_ = compressed.element_count;
  return filter;
}

double expected_compressed_bytes(std::uint32_t counters, double load) {
  return std::ceil(static_cast<double>(counters) * poisson_entropy_bits(load) / 8.0);
}

}  // namespace vc
