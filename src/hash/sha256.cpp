#include "hash/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define VC_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define VC_SHA256_X86 0
#endif

namespace vc {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t t1 = h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];
      std::uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g; g = f; f = e;
      e = d + t1;
      d = c; c = b; b = a;
      a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if VC_SHA256_X86

// The SHA extensions keep the eight working variables as two vectors, ABEF
// and CDGH; each sha256rnds2 does two rounds, and msg1/msg2 extend the
// message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_sha_ni(std::uint32_t* state,
                                                                const std::uint8_t* blocks,
                                                                std::size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds schedule words 4g..4g+3 once group g is reached.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), byte_swap);
      } else {
        const __m128i& w16 = msg[g & 3];        // words 4g-16 ..
        const __m128i& w12 = msg[(g + 1) & 3];  // words 4g-12 ..
        const __m128i& w8 = msg[(g + 2) & 3];   // words 4g-8 ..
        const __m128i& w4 = msg[(g + 3) & 3];   // words 4g-4 ..
        m = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4)), w4);
      }
      msg[g & 3] = m;
      const __m128i wk =
          _mm_add_epi32(m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool sha256_has_sha_ni() {
  static const bool kHas = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const bool ssse3_sse41 = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return ssse3_sse41 && (ebx & (1u << 29)) != 0;  // leaf 7 EBX bit 29: SHA
  }();
  return kHas;
}

#else

// No SHA-NI off x86: sha256_has_sha_ni() is false, so this is never chosen.
void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  sha256_blocks_portable(state, blocks, count);
}

bool sha256_has_sha_ni() { return false; }

#endif

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) {
  using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);
  static const BlockFn kBlocks = detail::sha256_has_sha_ni() ? detail::sha256_blocks_sha_ni
                                                             : detail::sha256_blocks_portable;
  kBlocks(state_.data(), blocks, count);
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      compress(buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - off) / 64; whole > 0) {
    compress(data.data() + off, whole);
    off += 64 * whole;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view s) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {  // no room for the length: pad out this block first
    std::memset(buf_.data() + buf_len_, 0, 64 - buf_len_);
    compress(buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(buf_.data(), 1);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Bytes mgf1_sha256(std::span<const std::uint8_t> seed, std::size_t len) {
  Bytes out(len);
  mgf1_sha256(seed, out);
  return out;
}

void mgf1_sha256(std::span<const std::uint8_t> seed, std::span<std::uint8_t> out) {
  std::uint32_t counter = 0;
  for (std::size_t at = 0; at < out.size(); at += 32, ++counter) {
    const std::uint8_t ctr_be[4] = {
        static_cast<std::uint8_t>(counter >> 24), static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8), static_cast<std::uint8_t>(counter)};
    Sha256 h;
    h.update(seed).update(std::span<const std::uint8_t>(ctr_be, 4));
    const Digest d = h.finish();
    std::memcpy(out.data() + at, d.data(), std::min<std::size_t>(32, out.size() - at));
  }
}

}  // namespace vc
