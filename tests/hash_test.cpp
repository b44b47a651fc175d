#include <gtest/gtest.h>

#include <string>

#include "hash/hmac.hpp"
#include "hash/sha256.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

std::string digest_hex(const Digest& d) { return to_hex(d); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55, 56, 63, 64, 65 bytes cross the padding boundary cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Digest one = a.finish();
    Sha256 b;
    for (char c : msg) b.update(std::string(1, c));
    EXPECT_EQ(b.finish(), one) << len;
  }
}

// Digests at the padding and block boundaries, pinned from Python's
// hashlib.  The bytes vary within each 32-bit word, so a message word loaded
// in the wrong byte order cannot go unnoticed.
TEST(Sha256, PinnedBoundaryDigests) {
  const std::pair<std::size_t, const char*> pins[] = {
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
      {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
      {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
  };
  for (const auto& [len, hex] : pins) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
    EXPECT_EQ(digest_hex(Sha256::hash(msg)), hex) << len;
  }
}

TEST(Sha256, HardwareAndPortableBlocksAgree) {
  if (!detail::sha256_has_sha_ni()) GTEST_SKIP() << "CPU has no SHA-NI";
  DeterministicRng rng(20);
  for (std::size_t trial = 0; trial < 2000; ++trial) {
    std::uint32_t portable[8];
    for (std::uint32_t& word : portable) word = rng.next_u32();
    std::uint32_t hardware[8];
    std::copy(std::begin(portable), std::end(portable), std::begin(hardware));
    const std::size_t blocks = 1 + trial % 3;  // multi-block calls carry state between blocks
    const Bytes data = rng.bytes(64 * blocks);
    detail::sha256_blocks_portable(portable, data.data(), blocks);
    detail::sha256_blocks_sha_ni(hardware, data.data(), blocks);
    ASSERT_TRUE(std::equal(std::begin(portable), std::end(portable), std::begin(hardware)))
        << "trial " << trial;
  }
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  std::string data = "Hi There";
  Digest mac = hmac_sha256(key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(to_hex(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Digest mac = hmac_sha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(to_hex(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  Digest mac = hmac_sha256(key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(to_hex(mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySeparation) {
  EXPECT_NE(hmac_sha256("k1", "msg"), hmac_sha256("k2", "msg"));
  EXPECT_NE(hmac_sha256("k", "m1"), hmac_sha256("k", "m2"));
}

TEST(Mgf1, LengthAndPrefixProperty) {
  Bytes seed = {1, 2, 3, 4};
  Bytes a = mgf1_sha256(seed, 100);
  Bytes b = mgf1_sha256(seed, 40);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 40u);
  // MGF1 is a stream: shorter output is a prefix of longer output.
  EXPECT_TRUE(std::equal(b.begin(), b.end(), a.begin()));
}

TEST(Mgf1, SeedSeparation) {
  Bytes s1 = {1}, s2 = {2};
  EXPECT_NE(mgf1_sha256(s1, 32), mgf1_sha256(s2, 32));
}

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 section 2.4.2 test vector: block 1 keystream.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Bytes nonce = from_hex("000000000000004a00000000");
  ChaCha20 stream(key, nonce, /*initial_counter=*/1);
  auto block = stream.next_block();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(block.data(), 16)),
            "224f51f3401bd9e12fde276fb8631ded");
}

TEST(ChaCha20, CounterAdvances) {
  Bytes key(32, 0);
  Bytes nonce(12, 0);
  ChaCha20 stream(key, nonce, 0);
  auto b0 = stream.next_block();
  auto b1 = stream.next_block();
  EXPECT_NE(to_hex(b0), to_hex(b1));
  ChaCha20 stream1(key, nonce, 1);
  EXPECT_EQ(to_hex(stream1.next_block()), to_hex(b1));
}

}  // namespace
}  // namespace vc
