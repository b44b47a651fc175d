#include <gtest/gtest.h>

#include "crypto/keygen.hpp"
#include "crypto/signature.hpp"
#include "crypto/standard_params.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

TEST(Keygen, RandomPrimeHasExactWidthAndIsPrime) {
  DeterministicRng rng(21);
  for (std::size_t bits : {32u, 64u, 128u}) {
    Bigint p = random_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p));
  }
}

TEST(Keygen, SafePrimeStructure) {
  DeterministicRng rng(22);
  Bigint p = random_safe_prime(rng, 64);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p));
  Bigint pp = Bigint::div_exact(p - Bigint(1), Bigint(2));
  EXPECT_TRUE(is_probable_prime(pp));
}

TEST(Keygen, ModulusIsProductOfPrimes) {
  DeterministicRng rng(23);
  RsaModulus m = generate_modulus(rng, 128, /*safe=*/false);
  EXPECT_EQ(m.p * m.q, m.n);
  EXPECT_TRUE(is_probable_prime(m.p));
  EXPECT_TRUE(is_probable_prime(m.q));
  EXPECT_NE(m.p, m.q);
}

TEST(Keygen, QrGeneratorIsSquare) {
  DeterministicRng rng(24);
  RsaModulus m = generate_modulus(rng, 128, false);
  Bigint g = random_qr_generator(rng, m.n);
  EXPECT_GT(g, Bigint(1));
  EXPECT_LT(g, m.n);
  // g is a QR: g^((p-1)(q-1)/4 * 2) structure is hard to test directly
  // without factoring; instead check Euler's criterion per factor.
  Bigint ep = Bigint::div_exact(m.p - Bigint(1), Bigint(2));
  Bigint eq = Bigint::div_exact(m.q - Bigint(1), Bigint(2));
  EXPECT_EQ(Bigint::pow_mod(Bigint::mod(g, m.p), ep, m.p), Bigint(1));
  EXPECT_EQ(Bigint::pow_mod(Bigint::mod(g, m.q), eq, m.q), Bigint(1));
}

TEST(StandardParams, PinnedSizesAreValid) {
  // tools/gen_params no longer reproduces the pinned sets (see
  // standard_params.cpp), so this is their only check.
  for (std::size_t bits : {512u, 1024u, 2048u}) {
    const RsaModulus& m = standard_accumulator_modulus(bits);
    EXPECT_EQ(m.p * m.q, m.n);
    EXPECT_EQ(m.n.bit_length(), bits);
    EXPECT_NE(m.p, m.q);
    EXPECT_TRUE(is_probable_prime(m.p));
    EXPECT_TRUE(is_probable_prime(m.q));
    // Safe primes: (p-1)/2 prime.
    EXPECT_TRUE(is_probable_prime(Bigint::div_exact(m.p - Bigint(1), Bigint(2))));
    EXPECT_TRUE(is_probable_prime(Bigint::div_exact(m.q - Bigint(1), Bigint(2))));
    const Bigint& g = standard_qr_generator(bits);
    EXPECT_GT(g, Bigint(1));
    EXPECT_LT(g, m.n);
  }
}

TEST(StandardParams, MemoizedSameObject) {
  const RsaModulus& a = standard_accumulator_modulus(512);
  const RsaModulus& b = standard_accumulator_modulus(512);
  EXPECT_EQ(&a, &b);
}

TEST(Signature, SignVerifyRoundtrip) {
  DeterministicRng rng(26);
  SigningKey sk = generate_signing_key(rng, 512);
  Signature sig = sk.sign("hello cloud");
  EXPECT_TRUE(sk.verify_key().verify("hello cloud", sig));
}

TEST(Signature, RejectsTamperedMessage) {
  DeterministicRng rng(27);
  SigningKey sk = generate_signing_key(rng, 512);
  Signature sig = sk.sign("original");
  EXPECT_FALSE(sk.verify_key().verify("tampered", sig));
}

TEST(Signature, RejectsTamperedSignature) {
  DeterministicRng rng(28);
  SigningKey sk = generate_signing_key(rng, 512);
  Signature sig = sk.sign("msg");
  sig.s += Bigint(1);
  EXPECT_FALSE(sk.verify_key().verify("msg", sig));
}

TEST(Signature, RejectsOutOfRangeSignature) {
  DeterministicRng rng(29);
  SigningKey sk = generate_signing_key(rng, 512);
  Signature sig{sk.verify_key().modulus() + Bigint(5)};
  EXPECT_FALSE(sk.verify_key().verify("msg", sig));
}

TEST(Signature, WrongKeyFails) {
  DeterministicRng rng(30);
  SigningKey a = generate_signing_key(rng, 512);
  SigningKey b = generate_signing_key(rng, 512);
  Signature sig = a.sign("msg");
  EXPECT_FALSE(b.verify_key().verify("msg", sig));
}

TEST(Signature, Deterministic) {
  DeterministicRng rng(31);
  SigningKey sk = generate_signing_key(rng, 512);
  EXPECT_EQ(sk.sign("m").s, sk.sign("m").s);
}

TEST(Signature, KeySerializationRoundtrip) {
  DeterministicRng rng(32);
  SigningKey sk = generate_signing_key(rng, 512);
  ByteWriter w;
  sk.verify_key().write(w);
  ByteReader r(w.data());
  VerifyKey vk = VerifyKey::read(r);
  EXPECT_EQ(vk, sk.verify_key());
  Signature sig = sk.sign("roundtrip");
  EXPECT_TRUE(vk.verify("roundtrip", sig));
}

TEST(Signature, SignatureSerializationRoundtrip) {
  DeterministicRng rng(33);
  SigningKey sk = generate_signing_key(rng, 512);
  Signature sig = sk.sign("x");
  ByteWriter w;
  sig.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(Signature::read(r), sig);
}

TEST(Signature, FingerprintDistinguishesKeys) {
  DeterministicRng rng(34);
  SigningKey a = generate_signing_key(rng, 512);
  SigningKey b = generate_signing_key(rng, 512);
  EXPECT_NE(a.verify_key().fingerprint(), b.verify_key().fingerprint());
  EXPECT_EQ(a.verify_key().fingerprint(), a.verify_key().fingerprint());
}

TEST(Signature, EmptyKeyThrows) {
  VerifyKey vk;
  EXPECT_THROW((void)vk.verify("m", Signature{Bigint(1)}), UsageError);
  SigningKey sk;
  EXPECT_THROW((void)sk.sign("m"), UsageError);
}

TEST(Fdh, HashBelowModulus) {
  DeterministicRng rng(35);
  RsaModulus m = generate_modulus(rng, 256, false);
  for (int i = 0; i < 10; ++i) {
    Bytes msg = rng.bytes(50);
    Bigint h = fdh_hash(msg, m.n);
    EXPECT_LT(h, m.n);
    EXPECT_GE(h.sign(), 0);
  }
}

}  // namespace
}  // namespace vc
