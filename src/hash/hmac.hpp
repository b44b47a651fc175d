// HMAC-SHA256 (RFC 2104), used as the keyed hash behind prime-representative
// derivation so that distinct domains (tuples, docIDs, dictionary gaps, ...)
// produce independent representative streams, and behind Bloom positions.
#pragma once

#include <span>
#include <string_view>

#include "hash/sha256.hpp"

namespace vc {

// HMAC-SHA256 under one key.  The hash states after the ipad and opad
// blocks are computed once, so each MAC costs only its message blocks and
// one outer block.  A caller that MACs many messages with a shared prefix
// absorbs the prefix into a copy of inner() once and finishes copies of that.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);
  explicit HmacSha256(std::string_view key);

  // The inner hash with the key block absorbed: append the message, then
  // pass it to finish().
  [[nodiscard]] const Sha256& inner() const { return inner_; }
  [[nodiscard]] Digest finish(Sha256 inner) const;

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> msg) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg);
Digest hmac_sha256(std::string_view key, std::string_view msg);

}  // namespace vc
