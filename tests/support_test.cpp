#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

TEST(Bytes, HexRoundtrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Bytes, HexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), ParseError);   // odd length
  EXPECT_THROW(from_hex("zz"), ParseError);    // bad digit
  EXPECT_TRUE(from_hex("").empty());
}

TEST(ByteWriter, FixedWidthLittleEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  EXPECT_EQ(to_hex(w.data()), "010302070605040f0e0d0c0b0a0908");
}

TEST(ByteReader, FixedWidthRoundtrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xdeadbeef);
  w.u64(~0ULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_TRUE(r.done());
}

TEST(Varint, Roundtrip) {
  const std::uint64_t cases[] = {0, 1, 127, 128, 129, 16383, 16384,
                                 1ULL << 32, ~0ULL, 0xcafebabedeadbeefULL};
  for (std::uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, SingleByteForSmall) {
  ByteWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Varint, OverflowRejected) {
  // 11 bytes of continuation is more than 64 bits.
  Bytes bad(11, 0xFF);
  ByteReader r(bad);
  EXPECT_THROW(r.varint(), ParseError);
}

TEST(ByteReader, TruncationThrows) {
  ByteWriter w;
  w.u32(42);
  Bytes data = w.data();
  data.pop_back();
  ByteReader r(data);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(ByteReader, LengthPrefixedBytes) {
  ByteWriter w;
  Bytes payload = {1, 2, 3};
  w.bytes(payload);
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "hello");
  r.expect_done();
}

TEST(ByteReader, CountBoundedByRemainingBytes) {
  ByteWriter w;
  w.varint(3);
  w.raw(Bytes(6, 0));
  ByteReader ok(w.data());
  EXPECT_EQ(ok.count(2), 3u);
  ByteReader too_many(w.data());
  EXPECT_THROW(too_many.count(3), ParseError);

  // A few bytes claiming 2^40 items must not reach reserve().
  ByteWriter huge;
  huge.varint(std::uint64_t{1} << 40);
  huge.raw(Bytes(4, 0));
  ByteReader r(huge.data());
  EXPECT_THROW(r.count(1), ParseError);
}

TEST(ByteReader, ExpectDoneThrowsOnTrailing) {
  Bytes data = {1, 2};
  ByteReader r(data);
  r.u8();
  EXPECT_THROW(r.expect_done(), ParseError);
}

TEST(ByteReader, BytesViewAliasesBuffer) {
  ByteWriter w;
  Bytes payload = {9, 8, 7};
  w.bytes(payload);
  const Bytes& buf = w.data();
  ByteReader r(buf);
  auto view = r.bytes_view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), buf.data() + 1);  // 1-byte varint prefix
}

TEST(Rng, DeterministicForSeed) {
  DeterministicRng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  DeterministicRng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, LabelsSeparateStreams) {
  DeterministicRng a(7, "x"), b(7, "y");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, BelowStaysInRange) {
  DeterministicRng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_THROW(rng.below(0), UsageError);
}

TEST(Rng, BelowCoversRange) {
  DeterministicRng rng(5);
  std::array<int, 8> seen{};
  for (int i = 0; i < 800; ++i) seen[rng.below(8)]++;
  for (int count : seen) EXPECT_GT(count, 50);  // roughly uniform
}

TEST(Rng, DoubleInUnitInterval) {
  DeterministicRng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  DeterministicRng a(9), b(9);
  auto ca = a.fork("child");
  auto cb = b.fork("child");
  EXPECT_EQ(ca.next_u64(), cb.next_u64());
  // Fork output differs from parent continuation.
  EXPECT_NE(ca.next_u64(), a.next_u64());
}

TEST(Rng, FillProducesRequestedLength) {
  DeterministicRng rng(1);
  EXPECT_EQ(rng.bytes(100).size(), 100u);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw UsageError("boom"); });
  EXPECT_THROW(fut.get(), UsageError);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) throw CryptoError("bad");
                                 }),
               CryptoError);
}

TEST(Stopwatch, MeasuresNonNegativeMonotonic) {
  Stopwatch sw;
  double t1 = sw.seconds();
  double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace vc
