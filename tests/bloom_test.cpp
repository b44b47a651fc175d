#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bloom/arith_coder.hpp"
#include "bloom/compressed_bloom.hpp"
#include "bloom/counting_bloom.hpp"
#include "setops/setops.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

BloomParams small_params(std::uint32_t m = 64, std::uint32_t k = 1) {
  return BloomParams{.counters = m, .hashes = k, .domain = "bloom-test"};
}

U64Set range_set(std::uint64_t lo, std::uint64_t hi) {
  U64Set out;
  for (std::uint64_t v = lo; v < hi; ++v) out.push_back(v);
  return out;
}

TEST(CountingBloom, AddIncrementsItsSlots) {
  CountingBloom b(small_params());
  b.add(42);
  auto pos = b.positions(42);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(b.counter(pos[0]), 1u);
  EXPECT_EQ(b.element_count(), 1u);
}

TEST(CountingBloom, RemoveUndoesAdd) {
  CountingBloom b(small_params());
  b.add(7);
  b.add(7);
  b.remove(7);
  auto pos = b.positions(7);
  EXPECT_EQ(b.counter(pos[0]), 1u);
  b.remove(7);
  EXPECT_EQ(b, CountingBloom(small_params()));
}

TEST(CountingBloom, RemoveUnderflowThrows) {
  CountingBloom b(small_params());
  EXPECT_THROW(b.remove(5), CryptoError);
}

TEST(CountingBloom, PositionsDeterministicAndSpread) {
  CountingBloom b(small_params(1024));
  auto p1 = b.positions(99);
  auto p2 = b.positions(99);
  EXPECT_EQ(p1, p2);
  // Different elements rarely collide in a sparse filter.
  std::set<std::uint32_t> slots;
  for (std::uint64_t e = 0; e < 50; ++e) slots.insert(b.positions(e)[0]);
  EXPECT_GT(slots.size(), 40u);
}

// Slot positions are part of the proof format (both sides rebuild filters
// from element lists).  k = 10 spans two HMAC blocks per element.
TEST(CountingBloom, PinnedPositions) {
  const CountingBloom b(BloomParams{.counters = 1000003, .hashes = 10, .domain = "vc.bloom"});
  EXPECT_EQ(b.positions(0), (std::vector<std::uint32_t>{700360, 618304, 798979, 117829, 427986,
                                                        501095, 706708, 536597, 117573, 824894}));
  EXPECT_EQ(b.positions(42), (std::vector<std::uint32_t>{945794, 917843, 51370, 283695, 61462,
                                                         28731, 578134, 878623, 554056, 516978}));
  EXPECT_EQ(b.positions(0x0123456789abcdefULL),
            (std::vector<std::uint32_t>{544393, 530092, 302134, 628770, 956713, 476954, 767989,
                                        658230, 788285, 85972}));
}

TEST(CountingBloom, MultiHashUsesKSlots) {
  CountingBloom b(small_params(1024, 4));
  EXPECT_EQ(b.positions(1).size(), 4u);
  b.add(1);
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < 1024; ++j) total += b.counter(j);
  EXPECT_EQ(total, 4u);
}

TEST(CountingBloom, LoadFormula) {
  CountingBloom b(small_params(100, 2));
  for (std::uint64_t e = 0; e < 25; ++e) b.add(e);
  EXPECT_DOUBLE_EQ(b.load(), 2.0 * 25 / 100);
}

TEST(CountingBloom, ElementwiseMin) {
  auto x1 = range_set(0, 30);
  auto x2 = range_set(20, 50);
  CountingBloom b1 = CountingBloom::from_set(small_params(256), x1);
  CountingBloom b2 = CountingBloom::from_set(small_params(256), x2);
  CountingBloom bhat = CountingBloom::elementwise_min(b1, b2);
  for (std::size_t j = 0; j < 256; ++j) {
    EXPECT_EQ(bhat.counter(j), std::min(b1.counter(j), b2.counter(j)));
  }
  EXPECT_THROW(
      CountingBloom::elementwise_min(b1, CountingBloom(small_params(128))), UsageError);
}

TEST(CountingBloom, IntersectionFilterDominatedByMin) {
  // Eq 7: B(X)_j <= min(B(X1)_j, B(X2)_j) for X = X1 ∩ X2.
  auto x1 = range_set(0, 40);
  auto x2 = range_set(25, 80);
  auto x = set_intersection(x1, x2);
  auto params = small_params(128);
  CountingBloom b1 = CountingBloom::from_set(params, x1);
  CountingBloom b2 = CountingBloom::from_set(params, x2);
  CountingBloom bx = CountingBloom::from_set(params, x);
  for (std::size_t j = 0; j < 128; ++j) {
    EXPECT_LE(bx.counter(j), std::min(b1.counter(j), b2.counter(j)));
  }
}

TEST(CheckElements, ExtractedElementsSatisfyEquations) {
  auto x1 = range_set(0, 60);
  auto x2 = range_set(40, 120);
  auto x = set_intersection(x1, x2);
  auto params = small_params(64);  // small m forces collisions
  CheckElements ce = extract_check_elements(params, x1, x2, x);
  CountingBloom b1 = CountingBloom::from_set(params, x1);
  CountingBloom b2 = CountingBloom::from_set(params, x2);
  EXPECT_TRUE(verify_check_elements(b1, b2, x, ce.c1, ce.c2));
  // Check elements come from the differences.
  for (std::uint64_t e : ce.c1) {
    EXPECT_TRUE(std::binary_search(x1.begin(), x1.end(), e));
    EXPECT_FALSE(std::binary_search(x.begin(), x.end(), e));
  }
  for (std::uint64_t e : ce.c2) {
    EXPECT_TRUE(std::binary_search(x2.begin(), x2.end(), e));
    EXPECT_FALSE(std::binary_search(x.begin(), x.end(), e));
  }
}

TEST(CheckElements, HidingAnIntersectionMemberFailsVerification) {
  auto x1 = range_set(0, 50);
  auto x2 = range_set(30, 90);
  auto x = set_intersection(x1, x2);  // {30..49}
  auto params = small_params(256);
  // The cloud hides one result and honestly recomputes check elements for
  // the *claimed* (wrong) intersection, but cannot put the hidden element
  // in both C1 and C2 (the proof layer checks disjointness) — here we model
  // it keeping the element out of C2.
  U64Set claimed = x;
  claimed.erase(std::find(claimed.begin(), claimed.end(), 35));
  CheckElements ce = extract_check_elements(params, x1, x2, claimed);
  CountingBloom b1 = CountingBloom::from_set(params, x1);
  CountingBloom b2 = CountingBloom::from_set(params, x2);
  // With the hidden element present in both C1 and C2 the equations pass —
  // that's exactly what disjointness catches at the proof layer:
  EXPECT_TRUE(verify_check_elements(b1, b2, claimed, ce.c1, ce.c2));
  EXPECT_FALSE(sets_disjoint(ce.c1, ce.c2));
  // Dropping it from C2 (to fake disjointness) breaks Eq 9:
  U64Set c2_censored;
  for (std::uint64_t e : ce.c2) {
    if (e != 35) c2_censored.push_back(e);
  }
  EXPECT_FALSE(verify_check_elements(b1, b2, claimed, ce.c1, c2_censored));
}

TEST(CheckElements, DisjointSetsNeedFewChecks) {
  // With a large m and disjoint hashes, C1/C2 are usually tiny.
  auto x1 = range_set(0, 20);
  auto x2 = range_set(100, 120);
  auto params = small_params(4096);
  CheckElements ce = extract_check_elements(params, x1, x2, {});
  EXPECT_LT(ce.c1.size() + ce.c2.size(), 10u);
}

TEST(CheckElements, ExpectedSizeBound) {
  // Eq 11/12: E[|C1|] <= m*l1*l2 = k^2 |X1||X2| / m.
  DeterministicRng rng(77);
  auto params = small_params(512);
  U64Set x1, x2;
  for (int i = 0; i < 80; ++i) x1.push_back(rng.next_u64() >> 1);
  for (int i = 0; i < 60; ++i) x2.push_back(rng.next_u64() >> 1);
  std::sort(x1.begin(), x1.end());
  std::sort(x2.begin(), x2.end());
  CheckElements ce = extract_check_elements(params, x1, x2, {});
  double bound = 80.0 * 60.0 / 512.0;  // ~9.4 expected
  EXPECT_LT(static_cast<double>(ce.c1.size()), 6 * bound + 10);
  EXPECT_LT(static_cast<double>(ce.c2.size()), 6 * bound + 10);
}

TEST(PoissonEntropy, KnownValues) {
  EXPECT_DOUBLE_EQ(poisson_entropy_bits(0.0), 0.0);
  // H grows with load then slowly; spot-check monotonicity in (0, 1].
  double h01 = poisson_entropy_bits(0.1);
  double h05 = poisson_entropy_bits(0.5);
  double h10 = poisson_entropy_bits(1.0);
  EXPECT_GT(h01, 0.0);
  EXPECT_LT(h01, h05);
  EXPECT_LT(h05, h10);
  EXPECT_LT(h10, 2.5);  // Poisson(1) entropy ~ 1.88 bits
  EXPECT_GT(h10, 1.5);
}

TEST(ArithCoder, RoundtripUniformSymbols) {
  DeterministicRng rng(88);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 2000; ++i) symbols.push_back(rng.below(256));
  ArithEncoder enc;
  AdaptiveModel em(256);
  for (auto s : symbols) em.encode(enc, s);
  Bytes coded = enc.finish();
  ArithDecoder dec(coded);
  AdaptiveModel dm(256);
  for (auto s : symbols) EXPECT_EQ(dm.decode(dec), s);
}

TEST(ArithCoder, SkewedStreamCompresses) {
  // 95% zeros: should compress far below 1 byte/symbol.
  DeterministicRng rng(89);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 8000; ++i) symbols.push_back(rng.below(100) < 95 ? 0 : rng.below(8));
  ArithEncoder enc;
  AdaptiveModel em(256);
  for (auto s : symbols) em.encode(enc, s);
  Bytes coded = enc.finish();
  EXPECT_LT(coded.size(), symbols.size() / 4);
  ArithDecoder dec(coded);
  AdaptiveModel dm(256);
  for (auto s : symbols) ASSERT_EQ(dm.decode(dec), s);
}

TEST(ArithCoder, RejectsBadSlices) {
  ArithEncoder enc;
  EXPECT_THROW(enc.encode(5, 5, 10), UsageError);
  EXPECT_THROW(enc.encode(0, 11, 10), UsageError);
  EXPECT_THROW(enc.encode(0, 1, 1 << 20), UsageError);
}

TEST(CompressedBloom, RoundtripLossless) {
  DeterministicRng rng(90);
  U64Set xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.next_u64());
  CountingBloom b = CountingBloom::from_set(small_params(2048), xs);
  CompressedBloom cb = compress_bloom(b);
  CountingBloom back = decompress_bloom(cb);
  EXPECT_EQ(back, b);
}

TEST(CompressedBloom, LowLoadCompressesNearEntropyBound) {
  DeterministicRng rng(91);
  U64Set xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.next_u64());
  CountingBloom b = CountingBloom::from_set(small_params(8192), xs);
  CompressedBloom cb = compress_bloom(b);
  double bound = expected_compressed_bytes(8192, b.load());
  // Adaptive model overhead is modest; within 2.5x of m*H(l)/8 and far
  // below one byte per counter.
  EXPECT_LT(static_cast<double>(cb.byte_size()), 2.5 * bound + 64);
  EXPECT_LT(cb.byte_size() * 4, b.counters().size());
}

TEST(CompressedBloom, EscapedLargeCountersRoundtrip) {
  CountingBloom b(small_params(16));
  // Drive one counter past the escape threshold.
  for (int i = 0; i < 300; ++i) b.add(7);
  CompressedBloom cb = compress_bloom(b);
  CountingBloom back = decompress_bloom(cb);
  EXPECT_EQ(back, b);
}

TEST(CompressedBloom, SerializationRoundtrip) {
  CountingBloom b = CountingBloom::from_set(small_params(), range_set(0, 10));
  CompressedBloom cb = compress_bloom(b);
  ByteWriter w;
  cb.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(CompressedBloom::read(r), cb);
  EXPECT_EQ(cb.encoded_size(), w.size());
}

}  // namespace
}  // namespace vc
