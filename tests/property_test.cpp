// Parameterized property sweeps over the cryptographic core.
//
// Each suite states an invariant and drives it across a parameter grid:
// accumulator algebra across modulus/representative widths, interval proofs
// across interval sizes, Bloom roundtrips across filter geometries, and the
// arithmetic coder across symbol distributions.
#include <gtest/gtest.h>

#include "bloom/arith_coder.hpp"
#include "bloom/compressed_bloom.hpp"
#include "crypto/standard_params.hpp"
#include "interval/interval_index.hpp"
#include "setops/setops.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

// --- accumulator algebra across parameter grid ---------------------------------

struct AccParams {
  std::size_t modulus_bits;
  std::size_t rep_bits;
  std::size_t set_size;
};

class AccumulatorProperty : public ::testing::TestWithParam<AccParams> {};

TEST_P(AccumulatorProperty, WitnessAlgebraHolds) {
  const AccParams p = GetParam();
  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(p.modulus_bits),
                                         standard_qr_generator(p.modulus_bits));
  auto pub = AccumulatorContext::public_side(owner.params());
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = p.rep_bits, .domain = "prop-acc"});

  std::vector<Bigint> set;
  for (std::size_t i = 0; i < p.set_size; ++i) {
    set.push_back(gen.representative(static_cast<std::uint64_t>(i)));
  }
  Bigint c_owner = owner.accumulate(set);
  Bigint c_pub = pub.accumulate(set);
  // 1. Owner and public accumulation agree.
  EXPECT_EQ(c_owner, c_pub);

  // 2. Any split subset/rest yields a verifying membership witness.
  for (std::size_t cut : {std::size_t{1}, p.set_size / 2, p.set_size - 1}) {
    std::vector<Bigint> subset(set.begin(), set.begin() + cut);
    std::vector<Bigint> rest(set.begin() + cut, set.end());
    Bigint w = membership_witness(owner, rest);
    EXPECT_TRUE(verify_membership(pub, c_owner, w, subset)) << cut;
    // 3. And never verifies a tampered accumulator.
    EXPECT_FALSE(verify_membership(pub, pub.power().mul(c_owner, Bigint(4)), w, subset));
  }

  // 4. Nonmembership of fresh outsiders verifies under both constructions.
  std::vector<Bigint> outsiders = {gen.representative(std::uint64_t{1} << 50),
                                   gen.representative(std::uint64_t{1} << 51)};
  NonmembershipWitness wo = nonmembership_witness(owner, set, outsiders);
  NonmembershipWitness wc = nonmembership_witness(pub, set, outsiders);
  EXPECT_TRUE(verify_nonmembership(pub, c_owner, wo, outsiders));
  EXPECT_TRUE(verify_nonmembership(pub, c_owner, wc, outsiders));

  // 5. Add-then-delete is the identity on the accumulator.
  std::vector<Bigint> extra = {gen.representative(std::uint64_t{1} << 52)};
  EXPECT_EQ(owner.delete_elements(owner.add_elements(c_owner, extra), extra), c_owner);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AccumulatorProperty,
    ::testing::Values(AccParams{512, 64, 8}, AccParams{512, 128, 24},
                      AccParams{1024, 64, 8}, AccParams{1024, 128, 16},
                      AccParams{512, 96, 40}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.modulus_bits) + "_r" +
             std::to_string(info.param.rep_bits) + "_n" +
             std::to_string(info.param.set_size);
    });

// --- interval index across interval sizes --------------------------------------

class IntervalProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IntervalProperty, ProofsHoldAtEveryIntervalSize) {
  const std::size_t interval_size = GetParam();
  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512));
  auto pub = AccumulatorContext::public_side(owner.params());
  PrimeCache primes(PrimeRepConfig{.rep_bits = 64, .domain = "prop-int"});

  std::vector<std::uint64_t> elements;
  for (std::uint64_t i = 0; i < 57; ++i) elements.push_back(3 * i + 5);
  IntervalIndex idx = IntervalIndex::build(owner, elements, primes,
                                           IntervalConfig{.interval_size = interval_size});
  EXPECT_EQ(idx.interval_count(), (57 + interval_size - 1) / interval_size);

  std::vector<std::uint64_t> members = {5, 35, 80, 173};
  auto mp = idx.prove_membership(pub, members, primes);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub, idx.root(), mp, members, primes));

  std::vector<std::uint64_t> absent = {0, 6, 100, 999999};
  auto np = idx.prove_nonmembership(pub, absent, primes);
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub, idx.root(), np, absent, primes));

  // Cross-claims never verify.
  EXPECT_FALSE(IntervalIndex::verify_membership(pub, idx.root(), mp, absent, primes));
  EXPECT_FALSE(IntervalIndex::verify_nonmembership(pub, idx.root(), np, members, primes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntervalProperty, ::testing::Values(1, 2, 5, 10, 57, 100));

// --- Bloom geometry sweep -------------------------------------------------------

struct BloomGeom {
  std::uint32_t m;
  std::uint32_t k;
  std::size_t elements;
};

class BloomProperty : public ::testing::TestWithParam<BloomGeom> {};

TEST_P(BloomProperty, CompressRoundtripAndCheckAccounting) {
  const BloomGeom g = GetParam();
  BloomParams params{.counters = g.m, .hashes = g.k, .domain = "prop-bloom"};
  DeterministicRng rng(g.m * 131 + g.k);
  U64Set x1, x2;
  for (std::size_t i = 0; i < g.elements; ++i) x1.push_back(rng.next_u64() >> 1);
  for (std::size_t i = 0; i < g.elements / 2; ++i) x2.push_back(rng.next_u64() >> 1);
  std::sort(x1.begin(), x1.end());
  x1.erase(std::unique(x1.begin(), x1.end()), x1.end());
  // Overlap: make x2 share a prefix of x1.
  x2.assign(x1.begin(), x1.begin() + x1.size() / 3);
  for (std::size_t i = 0; i < g.elements / 2; ++i) x2.push_back(rng.next_u64() >> 1);
  std::sort(x2.begin(), x2.end());
  x2.erase(std::unique(x2.begin(), x2.end()), x2.end());

  // Lossless compression at every geometry.
  CountingBloom b1 = CountingBloom::from_set(params, x1);
  EXPECT_EQ(decompress_bloom(compress_bloom(b1)), b1);

  // Check-element extraction always satisfies the slot equations.
  U64Set inter = set_intersection(x1, x2);
  const std::vector<CountingBloom> filters = {b1, CountingBloom::from_set(params, x2)};
  const CheckSlots slots(filters, inter);
  const U64Set c1 = slots.select(x1), c2 = slots.select(x2);
  const std::vector<std::span<const std::uint64_t>> checks = {c1, c2};
  EXPECT_EQ(check_slot_accounting(filters, inter, checks), SlotAccounting::kHolds);
}

INSTANTIATE_TEST_SUITE_P(Geometries, BloomProperty,
                         ::testing::Values(BloomGeom{16, 1, 30}, BloomGeom{64, 1, 100},
                                           BloomGeom{256, 2, 100}, BloomGeom{1024, 1, 500},
                                           BloomGeom{1024, 4, 200}, BloomGeom{4096, 1, 50}));

// --- arithmetic coder across distributions --------------------------------------

class CoderProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoderProperty, LosslessAcrossDistributions) {
  const int mode = GetParam();
  DeterministicRng rng(900 + mode);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 3000; ++i) {
    switch (mode) {
      case 0: symbols.push_back(rng.below(256)); break;            // uniform
      case 1: symbols.push_back(rng.below(2)); break;              // binary
      case 2: symbols.push_back(rng.below(100) < 97 ? 0 : 255); break;  // skewed+escape
      case 3: symbols.push_back(static_cast<std::uint32_t>(i) % 7); break;  // periodic
      default: symbols.push_back(0); break;                        // constant
    }
  }
  ArithEncoder enc;
  AdaptiveModel em(256);
  for (auto s : symbols) em.encode(enc, s);
  Bytes coded = enc.finish();
  ArithDecoder dec(coded);
  AdaptiveModel dm(256);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    ASSERT_EQ(dm.decode(dec), symbols[i]) << "mode " << mode << " at " << i;
  }
  if (mode == 4) EXPECT_LT(coded.size(), 128u);  // constant stream ≈ free
}

INSTANTIATE_TEST_SUITE_P(Distributions, CoderProperty, ::testing::Range(0, 5));

// --- set operations: algebraic laws on random sets ------------------------------

class SetOpsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetOpsProperty, AlgebraicLaws) {
  DeterministicRng rng(GetParam());
  auto random_set = [&](std::size_t n) {
    U64Set s;
    for (std::size_t i = 0; i < n; ++i) s.push_back(rng.below(200));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  U64Set a = random_set(60), b = random_set(60), c = random_set(40);
  EXPECT_EQ(set_intersection(a, b), set_intersection(b, a));
  EXPECT_EQ(set_union(set_intersection(a, b), set_difference(a, b)), a);
  EXPECT_TRUE(sets_disjoint(set_difference(a, b), set_intersection(a, b)));
  std::vector<U64Set> all = {a, b, c};
  EXPECT_EQ(set_intersection_many(all),
            set_intersection(set_intersection(a, b), c));
  EXPECT_TRUE(is_subset(set_intersection_many(all), c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vc
