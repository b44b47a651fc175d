#include "store/crc32.hpp"

#include <array>

namespace vc::store {

namespace {

// Slicing-by-eight: eight table lookups per 64-bit word instead of one per
// byte.  Tables are built once at first use (constant-time afterwards).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const Tables& tb = tables();
  std::uint32_t c = ~seed;
  std::size_t i = 0;
  auto word = [&](std::size_t at) {
    return static_cast<std::uint32_t>(data[at]) |
           static_cast<std::uint32_t>(data[at + 1]) << 8 |
           static_cast<std::uint32_t>(data[at + 2]) << 16 |
           static_cast<std::uint32_t>(data[at + 3]) << 24;
  };
  for (; i + 8 <= data.size(); i += 8) {
    c ^= word(i);
    const std::uint32_t hi = word(i + 4);
    c = tb.t[7][c & 0xFFu] ^ tb.t[6][(c >> 8) & 0xFFu] ^ tb.t[5][(c >> 16) & 0xFFu] ^
        tb.t[4][c >> 24] ^ tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) c = (c >> 8) ^ tb.t[0][(c ^ data[i]) & 0xFFu];
  return ~c;
}

}  // namespace vc::store
