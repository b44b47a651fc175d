// Byte-buffer serialization primitives.
//
// Every proof, witness, index record and protocol message in vcsearch has a
// canonical byte encoding produced by ByteWriter and consumed by ByteReader.
// Canonical encodings matter twice: signatures are computed over them, and
// the paper's Fig 6 reports *proof sizes*, which we measure byte-accurately
// from these encodings.
//
// Encoding conventions:
//   - fixed-width integers are little-endian;
//   - variable-length integers use LEB128 (7 bits per byte);
//   - byte strings and strings are length-prefixed with a varint.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vc {

using Bytes = std::vector<std::uint8_t>;

// Hex helpers (used in logs, golden tests and fingerprints).
std::string to_hex(std::span<const std::uint8_t> data);
Bytes from_hex(std::string_view hex);  // throws ParseError on bad input

// Appends canonical encodings to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void varint(std::uint64_t v);
  // Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> data);
  // Raw bytes, no length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> data);
  void str(std::string_view s);
  // Grows the buffer by `n` bytes and returns them for the caller to fill.
  std::span<std::uint8_t> extend(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return {buf_.data() + buf_.size() - n, n};
  }
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Reads canonical encodings from a non-owned buffer.  All methods throw
// ParseError on truncation or malformed input; a fully-consumed buffer is
// checked with done()/expect_done().
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  // Varint element count of a sequence whose items encode to at least
  // `min_bytes_per_item` bytes each.  Throws ParseError when the rest of the
  // buffer cannot hold that many items, so callers may reserve() the result.
  std::size_t count(std::size_t min_bytes_per_item);
  // Length-prefixed byte string (copies out).
  Bytes bytes();
  // Length-prefixed byte string as a view into the underlying buffer.
  std::span<const std::uint8_t> bytes_view();
  std::string str();
  // Raw bytes without a length prefix.
  std::span<const std::uint8_t> raw(std::size_t n);

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  void expect_done() const;  // throws ParseError if trailing bytes remain

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace vc
