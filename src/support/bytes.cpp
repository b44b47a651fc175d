#include "support/bytes.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace vc {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw ParseError("odd-length hex string");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) throw ParseError("invalid hex digit");
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  varint(data.size());
  raw(data);
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) throw ParseError("truncated buffer");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1);
    std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7F) > 1)) {
      throw ParseError("varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

Bytes ByteReader::bytes() {
  auto view = bytes_view();
  return Bytes(view.begin(), view.end());
}

std::span<const std::uint8_t> ByteReader::bytes_view() {
  std::uint64_t n = varint();
  need(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::size_t ByteReader::count(std::size_t min_bytes_per_item) {
  std::uint64_t n = varint();
  if (n > remaining() / std::max<std::size_t>(1, min_bytes_per_item)) {
    throw ParseError("element count exceeds the remaining buffer");
  }
  return static_cast<std::size_t>(n);
}

std::string ByteReader::str() {
  auto view = bytes_view();
  return std::string(view.begin(), view.end());
}

std::span<const std::uint8_t> ByteReader::raw(std::size_t n) {
  need(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::expect_done() const {
  if (!done()) throw ParseError("trailing bytes after message");
}

}  // namespace vc
