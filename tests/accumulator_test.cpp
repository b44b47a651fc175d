#include <gtest/gtest.h>

#include <vector>

#include "accumulator/accumulator.hpp"
#include "accumulator/witness.hpp"
#include "crypto/standard_params.hpp"
#include "primes/prime_rep.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

class AccumulatorTest : public ::testing::Test {
 protected:
  AccumulatorTest()
      : owner_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512))),
        pub_(AccumulatorContext::public_side(owner_.params())),
        gen_(PrimeRepConfig{.rep_bits = 64, .domain = "acc-test"}) {}

  std::vector<Bigint> primes(std::uint64_t lo, std::uint64_t hi) const {
    std::vector<Bigint> out;
    for (std::uint64_t e = lo; e < hi; ++e) out.push_back(gen_.representative(e));
    return out;
  }

  static std::vector<Bigint> slice(const std::vector<Bigint>& xs, std::size_t lo,
                                   std::size_t hi) {
    return std::vector<Bigint>(xs.begin() + lo, xs.begin() + hi);
  }

  AccumulatorContext owner_;
  AccumulatorContext pub_;
  PrimeRepGenerator gen_;
};

TEST_F(AccumulatorTest, OwnerAndPublicAccumulateIdentically) {
  auto xs = primes(0, 25);
  EXPECT_EQ(owner_.accumulate(xs), pub_.accumulate(xs));
}

TEST_F(AccumulatorTest, EmptySetAccumulatesToGenerator) {
  EXPECT_EQ(owner_.accumulate({}), owner_.g());
  EXPECT_EQ(pub_.accumulate({}), pub_.g());
}

TEST_F(AccumulatorTest, OrderIndependent) {
  auto xs = primes(0, 10);
  auto rev = xs;
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(owner_.accumulate(xs), owner_.accumulate(rev));
}

TEST_F(AccumulatorTest, MembershipWitnessVerifies) {
  auto xs = primes(0, 30);
  Bigint c = owner_.accumulate(xs);
  // Subset = first 5 elements, witness computed from the rest.
  auto subset = slice(xs, 0, 5);
  auto rest = slice(xs, 5, xs.size());
  Bigint w_owner = membership_witness(owner_, rest);
  Bigint w_pub = membership_witness(pub_, rest);
  EXPECT_EQ(w_owner, w_pub);
  EXPECT_TRUE(verify_membership(pub_, c, w_owner, subset));
  EXPECT_TRUE(verify_membership(owner_, c, w_owner, subset));
}

TEST_F(AccumulatorTest, SingleElementWitness) {
  auto xs = primes(0, 12);
  Bigint c = owner_.accumulate(xs);
  for (std::size_t i : {0u, 5u, 11u}) {
    std::vector<Bigint> rest;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (j != i) rest.push_back(xs[j]);
    }
    Bigint w = membership_witness(owner_, rest);
    std::vector<Bigint> single = {xs[i]};
    EXPECT_TRUE(verify_membership(pub_, c, w, single));
  }
}

TEST_F(AccumulatorTest, MembershipRejectsWrongSubset) {
  auto xs = primes(0, 20);
  Bigint c = owner_.accumulate(xs);
  auto rest = slice(xs, 5, xs.size());
  Bigint w = membership_witness(owner_, rest);
  // Claiming a different subset with this witness must fail.
  auto wrong = primes(100, 105);
  EXPECT_FALSE(verify_membership(pub_, c, w, wrong));
}

TEST_F(AccumulatorTest, MembershipRejectsWrongAccumulator) {
  auto xs = primes(0, 20);
  auto ys = primes(50, 70);
  Bigint c_other = owner_.accumulate(ys);
  auto rest = slice(xs, 3, xs.size());
  Bigint w = membership_witness(owner_, rest);
  EXPECT_FALSE(verify_membership(pub_, c_other, w, slice(xs, 0, 3)));
}

TEST_F(AccumulatorTest, WholeSetIsItsOwnWitnessSubset) {
  auto xs = primes(0, 8);
  Bigint c = owner_.accumulate(xs);
  Bigint w = membership_witness(owner_, {});  // rest empty: witness = g
  EXPECT_EQ(w, owner_.g());
  EXPECT_TRUE(verify_membership(pub_, c, w, xs));
}

TEST_F(AccumulatorTest, NonmembershipOwnerPathVerifies) {
  auto xs = primes(0, 40);
  auto ys = primes(100, 110);
  Bigint c = owner_.accumulate(xs);
  NonmembershipWitness w = nonmembership_witness(owner_, xs, ys);
  EXPECT_TRUE(verify_nonmembership(pub_, c, w, ys));
  EXPECT_TRUE(verify_nonmembership(owner_, c, w, ys));
}

TEST_F(AccumulatorTest, NonmembershipCloudPathVerifies) {
  auto xs = primes(0, 40);
  auto ys = primes(100, 110);
  Bigint c = pub_.accumulate(xs);
  NonmembershipWitness w = nonmembership_witness(pub_, xs, ys);
  EXPECT_TRUE(verify_nonmembership(pub_, c, w, ys));
}

TEST_F(AccumulatorTest, OwnerAndCloudWitnessesBothVerify) {
  // The Bézout pair is not unique, so the witnesses may differ, but both
  // must verify against the same accumulator.
  auto xs = primes(0, 15);
  auto ys = primes(60, 63);
  Bigint c = owner_.accumulate(xs);
  NonmembershipWitness wo = nonmembership_witness(owner_, xs, ys);
  NonmembershipWitness wc = nonmembership_witness(pub_, xs, ys);
  EXPECT_TRUE(verify_nonmembership(pub_, c, wo, ys));
  EXPECT_TRUE(verify_nonmembership(pub_, c, wc, ys));
}

TEST_F(AccumulatorTest, BezoutCoefficientBoundedByOutsiderProduct) {
  // Both construction paths keep |a| <= |Π Y| bits (the owner reduces mod v;
  // GMP's gcdext minimizes the coefficient of the larger operand), so the
  // witness size is O(|Y|) regardless of |X| — constant for fixed queries.
  auto xs = primes(0, 60);
  auto ys = primes(200, 202);
  NonmembershipWitness wo = nonmembership_witness(owner_, xs, ys);
  NonmembershipWitness wc = nonmembership_witness(pub_, xs, ys);
  EXPECT_LE(wo.a.bit_length(), 2 * 64u + 1);
  EXPECT_LE(wc.a.bit_length(), 2 * 64u + 1);
}

TEST_F(AccumulatorTest, NonmembershipSingleValue) {
  auto xs = primes(0, 20);
  Bigint c = owner_.accumulate(xs);
  std::vector<Bigint> y = {gen_.representative(std::uint64_t{999})};
  NonmembershipWitness w = nonmembership_witness(owner_, xs, y);
  EXPECT_TRUE(verify_nonmembership(pub_, c, w, y));
}

TEST_F(AccumulatorTest, NonmembershipEmptyOutsiders) {
  auto xs = primes(0, 10);
  Bigint c = owner_.accumulate(xs);
  NonmembershipWitness w = nonmembership_witness(owner_, xs, {});
  EXPECT_TRUE(verify_nonmembership(pub_, c, w, {}));
}

TEST_F(AccumulatorTest, NonmembershipThrowsWhenElementPresent) {
  auto xs = primes(0, 10);
  std::vector<Bigint> ys = {xs[3]};
  EXPECT_THROW(nonmembership_witness(owner_, xs, ys), CryptoError);
  EXPECT_THROW(nonmembership_witness(pub_, xs, ys), CryptoError);
}

TEST_F(AccumulatorTest, NonmembershipRejectsForgedWitness) {
  auto xs = primes(0, 20);
  auto ys = primes(50, 55);
  Bigint c = owner_.accumulate(xs);
  NonmembershipWitness w = nonmembership_witness(owner_, xs, ys);
  NonmembershipWitness forged = w;
  forged.a += Bigint(1);
  EXPECT_FALSE(verify_nonmembership(pub_, c, forged, ys));
  forged = w;
  forged.d = pub_.power().mul(forged.d, Bigint(2));
  EXPECT_FALSE(verify_nonmembership(pub_, c, forged, ys));
}

TEST_F(AccumulatorTest, NonmembershipRejectsMemberClaim) {
  // A witness for Y cannot be replayed to "prove" a member x is absent.
  auto xs = primes(0, 20);
  auto ys = primes(50, 55);
  Bigint c = owner_.accumulate(xs);
  NonmembershipWitness w = nonmembership_witness(owner_, xs, ys);
  std::vector<Bigint> member_claim = {xs[0]};
  EXPECT_FALSE(verify_nonmembership(pub_, c, w, member_claim));
}

TEST_F(AccumulatorTest, AddElementsMatchesRebuild) {
  auto xs = primes(0, 15);
  auto added = primes(15, 20);
  Bigint c = owner_.accumulate(xs);
  Bigint c_inc_owner = owner_.add_elements(c, added);
  Bigint c_inc_pub = pub_.add_elements(c, added);
  auto all = primes(0, 20);
  EXPECT_EQ(c_inc_owner, owner_.accumulate(all));
  EXPECT_EQ(c_inc_pub, c_inc_owner);
}

TEST_F(AccumulatorTest, DeleteElementsMatchesRebuild) {
  auto xs = primes(0, 20);
  Bigint c = owner_.accumulate(xs);
  auto removed = slice(xs, 15, 20);
  Bigint c_del = owner_.delete_elements(c, removed);
  EXPECT_EQ(c_del, owner_.accumulate(slice(xs, 0, 15)));
}

TEST_F(AccumulatorTest, DeleteRequiresTrapdoor) {
  auto xs = primes(0, 5);
  Bigint c = pub_.accumulate(xs);
  EXPECT_THROW(pub_.delete_elements(c, slice(xs, 0, 1)), UsageError);
}

TEST_F(AccumulatorTest, AddThenDeleteRestores) {
  auto xs = primes(0, 10);
  auto extra = primes(10, 13);
  Bigint c = owner_.accumulate(xs);
  Bigint c2 = owner_.add_elements(c, extra);
  Bigint c3 = owner_.delete_elements(c2, extra);
  EXPECT_EQ(c3, c);
}

TEST_F(AccumulatorTest, ParamsSerializationRoundtrip) {
  ByteWriter w;
  owner_.params().write(w);
  ByteReader r(w.data());
  AccumulatorParams p = AccumulatorParams::read(r);
  EXPECT_EQ(p, owner_.params());
}

TEST_F(AccumulatorTest, NonmembershipWitnessSerializationRoundtrip) {
  auto xs = primes(0, 10);
  auto ys = primes(30, 33);
  NonmembershipWitness w = nonmembership_witness(owner_, xs, ys);
  ByteWriter buf;
  w.write(buf);
  ByteReader r(buf.data());
  EXPECT_EQ(NonmembershipWitness::read(r), w);
  EXPECT_EQ(w.encoded_size(), buf.size());
}

}  // namespace
}  // namespace vc
