#include <gtest/gtest.h>

#include <vector>

#include "accumulator/batch_witness.hpp"
#include "accumulator/witness.hpp"
#include "crypto/standard_params.hpp"
#include "interval/dict_intervals.hpp"
#include "interval/interval_index.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

PrimeRepConfig test_prime_config() {
  return PrimeRepConfig{.rep_bits = 64, .domain = "interval-test"};
}

class IntervalIndexTest : public ::testing::Test {
 protected:
  IntervalIndexTest()
      : owner_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512))),
        pub_(AccumulatorContext::public_side(owner_.params())),
        primes_(test_prime_config()) {}

  static std::vector<std::uint64_t> evens(std::uint64_t n) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(2 * i + 10);
    return out;
  }

  AccumulatorContext owner_;
  AccumulatorContext pub_;
  PrimeCache primes_;
  IntervalConfig cfg_{.interval_size = 8};
};

TEST_F(IntervalIndexTest, BuildPartitionsElements) {
  auto elems = evens(50);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_EQ(idx.element_count(), 50u);
  EXPECT_EQ(idx.interval_count(), (50 + 7) / 8);
  // Ranges partition the u64 domain.
  EXPECT_EQ(idx.descriptor(0).lo, 0u);
  EXPECT_EQ(idx.descriptor(idx.interval_count() - 1).hi, ~std::uint64_t{0});
  for (std::size_t k = 1; k < idx.interval_count(); ++k) {
    EXPECT_EQ(idx.descriptor(k).lo, idx.descriptor(k - 1).hi + 1);
  }
}

TEST_F(IntervalIndexTest, BuildRejectsUnsorted) {
  std::vector<std::uint64_t> bad = {3, 2, 5};
  EXPECT_THROW(IntervalIndex::build(owner_, bad, primes_, cfg_), UsageError);
  std::vector<std::uint64_t> dup = {2, 2, 5};
  EXPECT_THROW(IntervalIndex::build(owner_, dup, primes_, cfg_), UsageError);
  EXPECT_THROW(IntervalIndex::build(owner_, {}, primes_, IntervalConfig{.interval_size = 0}),
               UsageError);
}

TEST_F(IntervalIndexTest, FindIntervalLocatesValues) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  for (std::uint64_t v : elems) {
    std::size_t k = idx.find_interval(v);
    EXPECT_GE(v, idx.descriptor(k).lo);
    EXPECT_LE(v, idx.descriptor(k).hi);
  }
  EXPECT_EQ(idx.find_interval(0), 0u);
  EXPECT_EQ(idx.find_interval(~std::uint64_t{0}), idx.interval_count() - 1);
}

TEST_F(IntervalIndexTest, MembershipProofVerifies) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  // Values spanning several intervals.
  std::vector<std::uint64_t> values = {10, 12, 48, 100, 128};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipSingleValue) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {24};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_EQ(proof.parts.size(), 1u);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipProofRejectsNonMember) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {11};  // odd, not a member
  EXPECT_THROW(idx.prove_membership(owner_, values, primes_), CryptoError);
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsWrongValues) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10, 12};
  auto proof = idx.prove_membership(owner_, values, primes_);
  // Claiming a different value set with the same proof must fail.
  std::vector<std::uint64_t> other = {10, 14};
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, other, primes_));
  // Claiming a non-member (odd) value: no part covers it correctly.
  std::vector<std::uint64_t> odd = {10, 13};
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, odd, primes_));
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsWrongRoot) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10};
  auto proof = idx.prove_membership(owner_, values, primes_);
  Bigint wrong_root = owner_.power().mul(idx.root(), Bigint(2));
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, wrong_root, proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsTamperedDescriptor) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10};
  auto proof = idx.prove_membership(owner_, values, primes_);
  proof.parts[0].desc.hi += 1;  // forged range
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

// The verifier derives a descriptor's prime at the shipped counter only: a
// counter whose candidate is composite, or a later prime candidate the
// root never accumulated, fails both proof kinds.  The composite fails the
// part's structure (the BPSW test), the prime the batched root equation.
TEST_F(IntervalIndexTest, VerifyRejectsAnyCounterButTheAccumulatedOne) {
  IntervalIndex idx = IntervalIndex::build(owner_, evens(30), primes_, cfg_);
  const PrimeRepGenerator mid = IntervalIndex::middle_generator(primes_.generator().config());
  const std::vector<std::uint64_t> in = {10}, out = {11};
  const auto membership = idx.prove_membership(owner_, in, primes_);
  const auto nonmembership = idx.prove_nonmembership(owner_, out, primes_);
  ASSERT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), membership, in, primes_));
  ASSERT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), nonmembership, out, primes_));
  const Bytes desc = idx.descriptor(0).encode();
  const std::uint32_t honest = idx.mid_counter(0);
  std::uint32_t composite = honest == 0 ? 1 : 0;
  while (is_probable_prime(mid.candidate(desc, composite))) ++composite;
  std::uint32_t later_prime = honest + 1;
  while (!is_probable_prime(mid.candidate(desc, later_prime))) ++later_prime;
  for (std::uint32_t ctr : {composite, later_prime}) {
    auto m = membership;
    m.parts[0].mid_ctr = ctr;
    EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), m, in, primes_)) << ctr;
    auto n = nonmembership;
    n.parts[0].mid_ctr = ctr;
    EXPECT_FALSE(IntervalIndex::verify_nonmembership(pub_, idx.root(), n, out, primes_))
        << ctr;
    VerifyBatch batch(pub_);
    const bool structural =
        IntervalIndex::verify_membership(idx.root(), m, in, primes_, batch, "counter");
    EXPECT_EQ(structural, ctr == later_prime) << ctr;
    if (structural) EXPECT_FALSE(batch.holds()) << ctr;
  }
}

// Counters stay the minimal ones through updates (kept intervals reuse
// theirs, re-chunked ones search again) and through both encodings.
TEST_F(IntervalIndexTest, CountersStayMinimalThroughUpdatesAndCodec) {
  const PrimeRepGenerator mid = IntervalIndex::middle_generator(primes_.generator().config());
  auto expect_minimal = [&](const IntervalIndex& idx) {
    for (std::size_t k = 0; k < idx.interval_count(); ++k) {
      const Bytes desc = idx.descriptor(k).encode();
      EXPECT_EQ(mid.candidate(desc, idx.mid_counter(k)), mid.representative(desc)) << k;
    }
  };
  const IntervalIndex base = IntervalIndex::build(owner_, evens(60), primes_, cfg_);
  expect_minimal(base);
  IntervalIndex idx = base;
  // One removal in the first interval, and enough additions past the last
  // member to split the last interval.
  std::vector<std::uint64_t> added;
  for (std::uint64_t v = 131; v < 131 + 2 * 20; v += 2) added.push_back(v);
  idx.update(owner_, added, std::vector<std::uint64_t>{12}, primes_);
  ASSERT_GT(idx.interval_count(), base.interval_count());
  expect_minimal(idx);
  ByteWriter full, patch;
  idx.write(full);
  idx.write_patch(patch, base);
  ByteReader rf(full.data()), rp(patch.data());
  const IntervalIndex from_full = IntervalIndex::read(rf, cfg_);
  const IntervalIndex from_patch = IntervalIndex::read_patch(rp, base);
  EXPECT_EQ(from_full, idx);
  EXPECT_EQ(from_patch, idx);
  // A reread index updates to the same result as the in-memory one.
  IntervalIndex reread = from_full;
  const Bigint before = idx.root();
  idx.update(owner_, std::vector<std::uint64_t>{13}, {}, primes_);
  reread.update(owner_, std::vector<std::uint64_t>{13}, {}, primes_);
  EXPECT_NE(idx.root(), before);
  EXPECT_EQ(reread, idx);
  expect_minimal(reread);
}

TEST_F(IntervalIndexTest, EmptyValuesNeedEmptyProof) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  auto proof = idx.prove_membership(owner_, {}, primes_);
  EXPECT_TRUE(proof.parts.empty());
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, {}, primes_));
  // A vacuous extra part is rejected.
  std::vector<std::uint64_t> one = {10};
  auto p2 = idx.prove_membership(owner_, one, primes_);
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), p2, {}, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipProofVerifies) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> absent = {11, 13, 55, 1000000};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipProofRejectsMember) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_THROW(idx.prove_nonmembership(owner_, std::vector<std::uint64_t>{10}, primes_),
               CryptoError);
  // A valid proof for {11} cannot vouch for the member 10.
  std::vector<std::uint64_t> absent = {11};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  std::vector<std::uint64_t> member = {10};
  EXPECT_FALSE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, member, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipOutsideElementRange) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> absent = {0, 5, ~std::uint64_t{0}};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, EmptySetNonmembership) {
  IntervalIndex idx = IntervalIndex::build(owner_, {}, primes_, cfg_);
  EXPECT_EQ(idx.interval_count(), 1u);
  std::vector<std::uint64_t> absent = {1, 42};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, InsertUpdatesRootAndProofsStillVerify) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  Bigint old_root = idx.root();
  std::vector<std::uint64_t> added = {11, 13, 15};
  idx.update(owner_, added, {}, primes_);
  EXPECT_NE(idx.root(), old_root);
  EXPECT_EQ(idx.element_count(), 43u);
  // New members prove membership; untouched members still prove.
  std::vector<std::uint64_t> values = {11, 10, 88};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
  // And a nonmember near the inserted ones still proves absence.
  std::vector<std::uint64_t> absent = {17};
  auto np = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub_, idx.root(), np, absent, primes_));
}

TEST_F(IntervalIndexTest, InsertMatchesFreshBuild) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> added = {101, 103};
  idx.update(owner_, added, {}, primes_);
  // The root need not equal a fresh build's root (ranges differ), but all
  // elements must verify.
  std::vector<std::uint64_t> all = elems;
  all.insert(all.end(), added.begin(), added.end());
  std::sort(all.begin(), all.end());
  auto proof = idx.prove_membership(owner_, all, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, all, primes_));
}

TEST_F(IntervalIndexTest, InsertSplitsOversizedInterval) {
  auto elems = evens(8);  // one interval
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_EQ(idx.interval_count(), 1u);
  std::vector<std::uint64_t> added;
  for (std::uint64_t i = 0; i < 12; ++i) added.push_back(101 + 2 * i);
  idx.update(owner_, added, {}, primes_);
  EXPECT_GT(idx.interval_count(), 1u);
  auto proof = idx.prove_membership(owner_, added, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, added, primes_));
}

TEST_F(IntervalIndexTest, InsertDuplicateIsNoop) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  Bigint root = idx.root();
  idx.update(owner_, std::vector<std::uint64_t>{10, 12}, {}, primes_);
  EXPECT_EQ(idx.element_count(), 10u);
  EXPECT_EQ(idx.root(), root);
}

TEST_F(IntervalIndexTest, InsertRequiresTrapdoor) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_THROW(idx.update(pub_, std::vector<std::uint64_t>{11}, {}, primes_), UsageError);
}

// A patch against the pre-update index rebuilds the updated index exactly;
// the intervals the insert left alone travel as base references, so the
// patch is well below the full encoding.
TEST_F(IntervalIndexTest, PatchRebuildsUpdatedIndexFromBase) {
  const IntervalIndex base = IntervalIndex::build(owner_, evens(80), primes_, cfg_);
  IntervalIndex idx = base;
  idx.update(owner_, std::vector<std::uint64_t>{171, 173}, {}, primes_);  // past the last member
  ASSERT_NE(idx.root(), base.root());

  ByteWriter patch;
  idx.write_patch(patch, base);
  ByteReader r(patch.data());
  EXPECT_EQ(IntervalIndex::read_patch(r, base), idx);
  EXPECT_TRUE(r.done());
  ByteWriter full;
  idx.write(full);
  // The patch is mostly the refreshed middle witnesses, which at this
  // modulus are ~40% of the full encoding (the rest: descriptors, members).
  EXPECT_LT(patch.size(), full.size() * 3 / 5);

  // Against an unrelated base of the same config every interval ships in
  // full, and the result is still exact.
  const IntervalIndex other = IntervalIndex::build(owner_, evens(3), primes_, cfg_);
  ByteWriter unrelated;
  idx.write_patch(unrelated, other);
  ByteReader r2(unrelated.data());
  EXPECT_EQ(IntervalIndex::read_patch(r2, other), idx);

  // A reference past the end of the base is a typed error.
  ByteReader r3(patch.data());
  EXPECT_THROW((void)IntervalIndex::read_patch(r3, other), ParseError);
}

TEST_F(IntervalIndexTest, ProofSerializationRoundtrip) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10, 40};
  auto proof = idx.prove_membership(owner_, values, primes_);
  ByteWriter w;
  proof.write(w);
  ByteReader r(w.data());
  auto round = IntervalMembershipProof::read(r);
  EXPECT_EQ(w.size(), proof.encoded_size());
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), round, values, primes_));

  std::vector<std::uint64_t> absent = {11};
  auto np = idx.prove_nonmembership(owner_, absent, primes_);
  ByteWriter w2;
  np.write(w2);
  ByteReader r2(w2.data());
  auto nround = IntervalNonmembershipProof::read(r2);
  EXPECT_EQ(w2.size(), np.encoded_size());
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub_, idx.root(), nround, absent, primes_));
}

// A few bytes announcing 2^62 or 2^28 proof parts or members must fail as
// a typed ParseError before any allocation.
TEST(IntervalDecode, HugeCountsAreTypedErrors) {
  for (std::uint64_t huge : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    ByteWriter parts;
    parts.varint(huge);
    parts.raw(Bytes(4, 0));
    ByteReader mr(parts.data());
    EXPECT_THROW((void)IntervalMembershipProof::read(mr), ParseError) << huge;
    ByteReader nr(parts.data());
    EXPECT_THROW((void)IntervalNonmembershipProof::read(nr), ParseError) << huge;

    // An index blob (root, one interval) whose interval's descriptor is
    // followed by a member list of `huge` elements.
    ByteWriter index;
    Bigint(4).write(index);
    index.varint(1);
    IntervalDescriptor{.lo = 0, .hi = ~std::uint64_t{0}, .b = Bigint(4)}.write(index);
    index.varint(huge);
    index.raw(Bytes(4, 0));
    ByteReader ir(index.data());
    EXPECT_THROW((void)IntervalIndex::read(ir, IntervalConfig{.interval_size = 8}), ParseError)
        << huge;
  }
}

// Index headers whose interval list, dictionary word list or gap-witness
// list claims more entries than the buffer could hold are typed errors,
// rejected before anything is reserved.
TEST(IntervalDecode, HugeIntervalAndDictionaryCountsAreTypedErrors) {
  for (std::uint64_t huge : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    // Interval-index root, then `huge` intervals.
    ByteWriter index;
    Bigint(4).write(index);
    index.varint(huge);
    index.raw(Bytes(4, 0));
    ByteReader ir(index.data());
    EXPECT_THROW((void)IntervalIndex::read(ir, IntervalConfig{.interval_size = 8}), ParseError)
        << huge;

    // Dictionary with `huge` words.
    ByteWriter words;
    words.str("vc.dict-intervals.v1");
    Bigint(4).write(words);
    words.varint(huge);
    words.raw(Bytes(4, 0));
    ByteReader wr(words.data());
    EXPECT_THROW((void)DictionaryIntervals::read(wr), ParseError) << huge;

    // Dictionary with one word and `huge` gap witnesses.
    ByteWriter gaps;
    gaps.str("vc.dict-intervals.v1");
    Bigint(4).write(gaps);
    gaps.varint(1);
    gaps.str("apple");
    gaps.varint(huge);
    gaps.raw(Bytes(4, 0));
    ByteReader gr(gaps.data());
    EXPECT_THROW((void)DictionaryIntervals::read(gr), ParseError) << huge;
  }
}

// --- dictionary gap intervals -------------------------------------------------

class DictIntervalsTest : public ::testing::Test {
 protected:
  DictIntervalsTest()
      : owner_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512))),
        pub_(AccumulatorContext::public_side(owner_.params())),
        dict_(DictionaryIntervals::build(
            owner_, {"apple", "banana", "cherry", "grape", "mango"}, test_prime_config())) {}

  AccumulatorContext owner_;
  AccumulatorContext pub_;
  DictionaryIntervals dict_;
};

TEST_F(DictIntervalsTest, Contains) {
  EXPECT_TRUE(dict_.contains("banana"));
  EXPECT_FALSE(dict_.contains("kiwi"));
  EXPECT_EQ(dict_.word_count(), 5u);
}

TEST_F(DictIntervalsTest, UnknownWordProofVerifies) {
  for (const char* w : {"aardvark", "blueberry", "kiwi", "zucchini"}) {
    GapProof p = dict_.prove_unknown(w);
    EXPECT_TRUE(
        DictionaryIntervals::verify_unknown(pub_, dict_.root(), w, p, test_prime_config()))
        << w;
  }
}

TEST_F(DictIntervalsTest, BoundaryGaps) {
  GapProof first = dict_.prove_unknown("aaa");  // before every word
  EXPECT_EQ(first.lo, "");
  EXPECT_EQ(first.hi, "apple");
  GapProof last = dict_.prove_unknown("zebra");  // after every word
  EXPECT_EQ(last.lo, "mango");
  EXPECT_EQ(last.hi, DictionaryIntervals::kPlusInf);
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "zebra", last,
                                                  test_prime_config()));
}

TEST_F(DictIntervalsTest, KnownWordCannotBeProvedUnknown) {
  EXPECT_THROW((void)dict_.prove_unknown("cherry"), UsageError);
  // Replaying another gap's proof for a known word fails the range check.
  GapProof p = dict_.prove_unknown("kiwi");
  EXPECT_FALSE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "cherry", p,
                                                   test_prime_config()));
}

TEST_F(DictIntervalsTest, ForgedGapRejected) {
  GapProof p = dict_.prove_unknown("kiwi");
  GapProof forged = p;
  forged.lo = "a";  // a gap the owner never accumulated
  forged.hi = "zzz";
  EXPECT_FALSE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "kiwi", forged,
                                                   test_prime_config()));
}

TEST_F(DictIntervalsTest, WrongRootRejected) {
  GapProof p = dict_.prove_unknown("kiwi");
  Bigint wrong = pub_.power().mul(dict_.root(), Bigint(2));
  EXPECT_FALSE(
      DictionaryIntervals::verify_unknown(pub_, wrong, "kiwi", p, test_prime_config()));
}

TEST_F(DictIntervalsTest, BuildValidation) {
  EXPECT_THROW(DictionaryIntervals::build(owner_, {"b", "a"}, test_prime_config()),
               UsageError);
  EXPECT_THROW(DictionaryIntervals::build(owner_, {"a", "a"}, test_prime_config()),
               UsageError);
  EXPECT_THROW(DictionaryIntervals::build(owner_, {""}, test_prime_config()), UsageError);
}

TEST_F(DictIntervalsTest, EmptyDictionaryProvesEverythingUnknown) {
  DictionaryIntervals empty = DictionaryIntervals::build(owner_, {}, test_prime_config());
  GapProof p = empty.prove_unknown("anything");
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, empty.root(), "anything", p,
                                                  test_prime_config()));
}

TEST_F(DictIntervalsTest, GapProofSerializationRoundtrip) {
  GapProof p = dict_.prove_unknown("kiwi");
  ByteWriter w;
  p.write(w);
  EXPECT_EQ(p.encoded_size(), w.size());
  ByteReader r(w.data());
  GapProof round = GapProof::read(r);
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "kiwi", round,
                                                  test_prime_config()));
}

// --- witness-engine equivalence ---------------------------------------------------
//
// The batch engine, the pool fan-out and the fixed-base tables are pure
// optimisations: every path must emit the exact bytes the straight-line seed
// code emits.

class BatchWitnessTest : public IntervalIndexTest {
 protected:
  std::vector<Bigint> reps(std::uint64_t n) {
    std::vector<Bigint> out;
    for (std::uint64_t v : evens(n)) out.push_back(primes_.get(v));
    return out;
  }
};

TEST_F(BatchWitnessTest, BatchedWitnessesByteIdenticalToPerElement) {
  auto xs = reps(33);
  for (const AccumulatorContext* ctx : {&owner_, &pub_}) {
    auto batch = batch_membership_witnesses(*ctx, xs);
    ASSERT_EQ(batch.size(), xs.size());
    for (std::size_t j = 0; j < xs.size(); ++j) {
      std::vector<Bigint> rest;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != j) rest.push_back(xs[i]);
      }
      Bigint expect = membership_witness(*ctx, rest);
      ByteWriter wa, wb;
      batch[j].write(wa);
      expect.write(wb);
      EXPECT_EQ(wa.data(), wb.data()) << "witness " << j;
    }
  }
}

TEST_F(BatchWitnessTest, BatchedEdgeCases) {
  auto one = reps(1);
  for (const AccumulatorContext* ctx : {&owner_, &pub_}) {
    EXPECT_TRUE(batch_membership_witnesses(*ctx, {}).empty());
    auto batch = batch_membership_witnesses(*ctx, one);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], membership_witness(*ctx, {}));
  }
}

TEST_F(BatchWitnessTest, PooledBatchMatchesSerial) {
  auto xs = reps(40);
  ThreadPool pool(4);
  for (const AccumulatorContext* ctx : {&owner_, &pub_}) {
    auto serial = batch_membership_witnesses(*ctx, xs);
    AccumulatorContext pooled = *ctx;
    pooled.set_pool(&pool);
    EXPECT_EQ(batch_membership_witnesses(pooled, xs), serial);
  }
}

TEST_F(BatchWitnessTest, FixedBaseBatchMatchesGeneric) {
  auto xs = reps(24);
  auto generic = batch_membership_witnesses(pub_, xs);
  AccumulatorContext fixed = pub_;
  fixed.enable_fixed_base(xs.size() * 64 + 64);
  EXPECT_EQ(batch_membership_witnesses(fixed, xs), generic);
  EXPECT_EQ(fixed.accumulate(xs), pub_.accumulate(xs));

  AccumulatorContext fixed_owner = owner_;
  fixed_owner.enable_fixed_base(0);  // owner tables are φ(n)-sized anyway
  EXPECT_EQ(fixed_owner.accumulate(xs), owner_.accumulate(xs));
}

TEST_F(BatchWitnessTest, PooledIntervalIndexByteIdenticalToSerial) {
  auto elems = evens(120);
  IntervalIndex serial = IntervalIndex::build(owner_, elems, primes_, cfg_);

  ThreadPool pool(4);
  AccumulatorContext pooled_owner = owner_;
  pooled_owner.set_pool(&pool);
  IntervalIndex pooled = IntervalIndex::build(pooled_owner, elems, primes_, cfg_);

  ByteWriter ws, wp;
  serial.write(ws);
  pooled.write(wp);
  EXPECT_EQ(ws.data(), wp.data());

  // Proof generation fan-out must not change proof bytes either.
  std::vector<std::uint64_t> members = {10, 12, 48, 100, 200, 236};
  std::vector<std::uint64_t> absent = {11, 49, 1001};
  ByteWriter ms, mp, ns, np;
  serial.prove_membership(owner_, members, primes_).write(ms);
  pooled.prove_membership(pooled_owner, members, primes_).write(mp);
  serial.prove_nonmembership(owner_, absent, primes_).write(ns);
  pooled.prove_nonmembership(pooled_owner, absent, primes_).write(np);
  EXPECT_EQ(ms.data(), mp.data());
  EXPECT_EQ(ns.data(), np.data());
}

}  // namespace
}  // namespace vc
