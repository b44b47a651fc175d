#include <gtest/gtest.h>

#include <cstdio>

#include "crypto/standard_params.hpp"
#include "interval/interval_index.hpp"
#include "primes/prime_cache.hpp"
#include "primes/prime_rep.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

PrimeRepConfig small_config(std::string domain = "test") {
  return PrimeRepConfig{.rep_bits = 64, .domain = std::move(domain)};
}

TEST(PrimeRep, ProducesPrimesOfExactWidth) {
  PrimeRepGenerator gen(small_config());
  for (std::uint64_t e = 0; e < 32; ++e) {
    Bigint p = gen.representative(e);
    EXPECT_EQ(p.bit_length(), 64u) << e;
    EXPECT_TRUE(is_probable_prime(p)) << e;
  }
}

TEST(PrimeRep, Deterministic) {
  PrimeRepGenerator a(small_config()), b(small_config());
  for (std::uint64_t e : {0ULL, 7ULL, ~0ULL}) {
    EXPECT_EQ(a.representative(e), b.representative(e));
  }
}

TEST(PrimeRep, DistinctElementsDistinctPrimes) {
  PrimeRepGenerator gen(small_config());
  std::set<std::string> seen;
  for (std::uint64_t e = 0; e < 200; ++e) {
    EXPECT_TRUE(seen.insert(gen.representative(e).to_decimal()).second) << e;
  }
}

TEST(PrimeRep, DomainSeparation) {
  PrimeRepGenerator a(small_config("d1")), b(small_config("d2"));
  EXPECT_NE(a.representative(std::uint64_t{5}), b.representative(std::uint64_t{5}));
}

TEST(PrimeRep, StringElements) {
  PrimeRepGenerator gen(small_config());
  Bigint p = gen.representative("hello");
  EXPECT_TRUE(is_probable_prime(p));
  EXPECT_EQ(p, gen.representative(std::string_view("hello")));
  EXPECT_NE(p, gen.representative("hellp"));
}

TEST(PrimeRep, ConfigurableWidth) {
  PrimeRepConfig cfg = small_config();
  cfg.rep_bits = 128;
  PrimeRepGenerator gen(cfg);
  EXPECT_EQ(gen.representative(std::uint64_t{1}).bit_length(), 128u);
  PrimeRepConfig bad = small_config();
  bad.rep_bits = 8;
  EXPECT_THROW(PrimeRepGenerator{bad}, UsageError);
}

// The element -> prime mapping is part of the store and proof formats: a
// change to the primality test or the candidate stream must leave these
// 128-bit representatives (the production width) exactly where they are.
TEST(PrimeRep, PinnedRepresentatives) {
  auto hex = [](const Bigint& p) { return to_hex(p.to_bytes()); };
  struct Pin {
    const char* domain;
    std::uint64_t element;
    const char* rep;
  };
  const Pin pins[] = {
      {"vc.tuples", 0, "d862284aedc0f9342fcf474ce28dbe87"},
      {"vc.tuples", 42, "b8e9702f14f6624b8e1ce12ef06f5325"},
      {"vc.tuples", 0x0123456789abcdefULL, "b419aaae965e33d5af472a5cdd505041"},
      {"vc.docs", 1, "9e683b8afc3fba2a6c796e3fbe144a15"},
      {"vc.docs", 977, "e68c1445dd2a74fc1ad051b34a5f103f"},
      {"vc.dict", 7, "e2393714176f0e22e1cf67e5131820d5"},
      {"vc.dict", ~0ULL, "96aeeb431ca38e62f7b1dc0ad24c4e8f"},
  };
  for (const Pin& pin : pins) {
    PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = pin.domain});
    EXPECT_EQ(hex(gen.representative(pin.element)), pin.rep) << pin.domain << " " << pin.element;
  }

  // A real middle-layer descriptor: the first interval of a small tuple tree.
  PrimeRepConfig tuples{.rep_bits = 128, .domain = "vc.tuples"};
  PrimeCache tuple_primes(tuples);
  const std::vector<std::uint64_t> elems = {3, 10, 11, 500, 4096, 70000, 1ULL << 40};
  const AccumulatorContext ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                                           standard_qr_generator(512));
  IntervalIndex idx =
      IntervalIndex::build(ctx, elems, tuple_primes, IntervalConfig{.interval_size = 4});
  const Bytes desc = idx.descriptor(0).encode();
  EXPECT_EQ(hex(IntervalIndex::middle_generator(tuples).representative(desc)),
            "ac03a3e79d685953b4d20aa053bd91ff");
}

// Byte-string elements whose lengths straddle the HMAC block boundaries:
// with the 4-byte counter, 51 and 52 bytes sit either side of the last
// length that pads within one block, 59/60 either side of a full block, and
// 64 fills one on its own.  147 bytes is a 1024-bit middle-layer descriptor.
TEST(PrimeRep, PinnedByteStringRepresentatives) {
  auto hex = [](const Bigint& p) { return to_hex(p.to_bytes()); };
  const PrimeRepConfig tuples{.rep_bits = 128, .domain = "vc.tuples"};
  const PrimeRepGenerator mid = IntervalIndex::middle_generator(tuples);
  const std::pair<std::size_t, const char*> pins[] = {
      {0, "d48982e9fc1e258a97e45db5ef99b4c7"},
      {51, "eae831fa673a42a961a4dd29356bdd45"},
      {52, "d68c07b72df635d1ccb587e45cbfa113"},
      {59, "b1ce42037c65f8fccd5c5247a90ec7b1"},
      {60, "a954d406a635125b218684a63baf6603"},
      {64, "99f65d896c633de7527dbb9085e93ef7"},
  };
  for (const auto& [len, rep] : pins) {
    Bytes element(len);
    for (std::size_t i = 0; i < len; ++i) element[i] = static_cast<std::uint8_t>(i * 37 + 11);
    EXPECT_EQ(hex(mid.representative(element)), rep) << len;
  }

  PrimeCache tuple_primes(tuples);
  const std::vector<std::uint64_t> elems = {5, 17, 900, 1ULL << 33, 1ULL << 50};
  const AccumulatorContext ctx = AccumulatorContext::owner(standard_accumulator_modulus(1024),
                                                           standard_qr_generator(1024));
  IntervalIndex idx =
      IntervalIndex::build(ctx, elems, tuple_primes, IntervalConfig{.interval_size = 3});
  const Bytes desc = idx.descriptor(0).encode();
  ASSERT_EQ(desc.size(), 147u);
  EXPECT_EQ(hex(mid.representative(desc)), "df6b066eeaea998014a2fa46aa98c827");
}

TEST(PrimeCache, ComputesAndCaches) {
  PrimeCache cache(small_config());
  Bigint p1 = cache.get(42);
  EXPECT_EQ(cache.misses(), 1u);
  Bigint p2 = cache.get(42);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(p1, cache.generator().representative(std::uint64_t{42}));
}

TEST(PrimeCache, TryGetDoesNotCompute) {
  PrimeCache cache(small_config());
  Bigint out;
  EXPECT_FALSE(cache.try_get(1, out));
  cache.get(1);
  EXPECT_TRUE(cache.try_get(1, out));
  EXPECT_EQ(out, cache.get(1));
}

TEST(PrimeCache, PrecomputeFillsAll) {
  PrimeCache cache(small_config());
  ThreadPool pool(4);
  std::vector<std::uint64_t> elems;
  for (std::uint64_t e = 0; e < 100; ++e) elems.push_back(e * 3);
  cache.precompute(elems, pool);
  EXPECT_EQ(cache.size(), 100u);
  Bigint out;
  for (std::uint64_t e : elems) EXPECT_TRUE(cache.try_get(e, out));
}

TEST(PrimeCache, ClearEmpties) {
  PrimeCache cache(small_config());
  cache.get(5);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  Bigint out;
  EXPECT_FALSE(cache.try_get(5, out));
}

TEST(PrimeCache, ConcurrentGetsConsistent) {
  PrimeCache cache(small_config());
  ThreadPool pool(8);
  std::vector<Bigint> results(200);
  pool.parallel_for(0, results.size(),
                    [&](std::size_t i) { results[i] = cache.get(i % 10); });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], cache.get(i % 10));
  }
  EXPECT_EQ(cache.size(), 10u);
}

}  // namespace
}  // namespace vc
