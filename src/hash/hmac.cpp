#include "hash/hmac.hpp"

#include <algorithm>
#include <array>

namespace vc {

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k_block[i] ^ 0x36;
    opad[i] = k_block[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

HmacSha256::HmacSha256(std::string_view key) : HmacSha256(as_bytes(key)) {}

Digest HmacSha256::finish(Sha256 inner) const {
  const Digest inner_d = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_d);
  return outer.finish();
}

Digest HmacSha256::mac(std::span<const std::uint8_t> msg) const {
  Sha256 inner = inner_;
  inner.update(msg);
  return finish(inner);
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg) {
  return HmacSha256(key).mac(msg);
}

Digest hmac_sha256(std::string_view key, std::string_view msg) {
  return HmacSha256(key).mac(as_bytes(msg));
}

}  // namespace vc
