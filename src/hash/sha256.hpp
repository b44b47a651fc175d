// SHA-256 implemented from scratch (FIPS 180-4), with an x86 SHA-NI block
// function chosen once at start-up; same digests.
//
// Used for: RSA-FDH message signing, prime-representative derivation, Bloom
// filter hashing, and content fingerprints of index components.  A from-
// scratch implementation keeps the library dependency-free beyond GMP and
// lets tests pin the exact digest of every canonical encoding.  The block
// function is the portable one unless the CPU reports the SHA extensions
// (plus SSSE3 and SSE4.1); both produce the same chaining values.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "support/bytes.hpp"

namespace vc {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view s);
  // Finalizes; the object must not be updated afterwards.  A copy taken
  // before finish() carries on from the same point, which is how keyed
  // hashes reuse the state after a shared prefix (hmac.hpp).
  Digest finish();

  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view s);

 private:
  void compress(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// MGF1-SHA256 mask generation (RFC 8017): expands a seed to `len` bytes.
// Used to build full-domain hashes the size of an RSA modulus.
Bytes mgf1_sha256(std::span<const std::uint8_t> seed, std::size_t len);
// The same mask written into `out` (its size is the mask length).
void mgf1_sha256(std::span<const std::uint8_t> seed, std::span<std::uint8_t> out);

namespace detail {

// The two block functions behind Sha256, exposed so tests can check that
// they agree.  Each folds `count` consecutive 64-byte blocks into `state`.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count);
// Only valid when sha256_has_sha_ni(); on other CPUs it is never chosen.
void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count);
// Whether the CPU has SHA-NI, SSSE3 and SSE4.1 (always false off x86).
// The CPUID check runs once per process.
bool sha256_has_sha_ni();

}  // namespace detail

}  // namespace vc
