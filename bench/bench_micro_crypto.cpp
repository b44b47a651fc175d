// Micro-benchmarks of the cryptographic kernels (google-benchmark).
//
// Not a paper figure; these pin the constants behind every other number:
// SHA-256 throughput, prime-representative search, owner vs cloud
// exponentiation, signatures, and witness primitives at small scale.
#include <benchmark/benchmark.h>

#include "accumulator/witness.hpp"
#include "bigint/power_context.hpp"
#include "crypto/signature.hpp"
#include "crypto/standard_params.hpp"
#include "hash/sha256.hpp"
#include "interval/interval_index.hpp"
#include "primes/prime_rep.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  DeterministicRng rng(1);
  Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// One 64-byte block through the block function Sha256 picked at start-up
// (SHA-NI where the CPU has it); Arg 1 forces the portable one.
void BM_Sha256Block(benchmark::State& state) {
  DeterministicRng rng(6);
  const Bytes block = rng.bytes(64);
  std::uint32_t chain[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const bool hardware = state.range(0) == 0 && detail::sha256_has_sha_ni();
  for (auto _ : state) {
    if (hardware) {
      detail::sha256_blocks_sha_ni(chain, block.data(), 1);
    } else {
      detail::sha256_blocks_portable(chain, block.data(), 1);
    }
    benchmark::DoNotOptimize(chain);
  }
  state.SetLabel(hardware ? "sha-ni" : "portable");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256Block)->Arg(0)->Arg(1);  // 0=chosen at start-up, 1=portable

void BM_PrimeRepresentative(benchmark::State& state) {
  PrimeRepGenerator gen(PrimeRepConfig{
      .rep_bits = static_cast<std::size_t>(state.range(0)), .domain = "bm"});
  std::uint64_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.representative(e++));
  }
}
BENCHMARK(BM_PrimeRepresentative)->Arg(64)->Arg(128)->Arg(256);

// The verifier's middle-layer derivation: a 147-byte 1024-bit interval
// descriptor mapped to a 128-bit representative.  The range bounds change
// every iteration, so each one searches a fresh candidate stream.
void BM_PrimeRepresentativeDescriptor(benchmark::State& state) {
  const PrimeRepGenerator gen = IntervalIndex::middle_generator(
      PrimeRepConfig{.rep_bits = 128, .domain = "vc.tuples"});
  DeterministicRng rng(7);
  IntervalDescriptor desc{.lo = 0, .hi = 0,
                          .b = Bigint::random_bits(rng, 1024) % standard_accumulator_modulus(1024).n};
  for (auto _ : state) {
    desc.hi = desc.lo + 99;
    benchmark::DoNotOptimize(gen.representative(desc.encode()));
    desc.lo += 100;
  }
  state.SetLabel(std::to_string(desc.encode().size()) + "-byte descriptor");
}
BENCHMARK(BM_PrimeRepresentativeDescriptor)->Unit(benchmark::kMicrosecond);

// The same derivation when the proof ships the counter: one candidate at
// the minimal counter (found before timing) plus one BPSW test, which is
// what the verifier now pays per interval part.
void BM_PrimeRepresentativeAtCounter(benchmark::State& state) {
  const PrimeRepGenerator gen = IntervalIndex::middle_generator(
      PrimeRepConfig{.rep_bits = 128, .domain = "vc.tuples"});
  DeterministicRng rng(7);
  IntervalDescriptor desc{.lo = 0, .hi = 0,
                          .b = Bigint::random_bits(rng, 1024) % standard_accumulator_modulus(1024).n};
  std::vector<std::pair<Bytes, std::uint32_t>> shipped;
  for (int i = 0; i < 64; ++i) {
    desc.hi = desc.lo + 99;
    Bytes enc = desc.encode();
    const std::uint32_t ctr = gen.search(enc).counter;
    shipped.emplace_back(std::move(enc), ctr);
    desc.lo += 100;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [enc, ctr] = shipped[i++ % shipped.size()];
    const Bigint candidate = gen.candidate(enc, ctr);
    benchmark::DoNotOptimize(is_probable_prime(candidate));
  }
  state.SetLabel(std::to_string(shipped.front().first.size()) + "-byte descriptor");
}
BENCHMARK(BM_PrimeRepresentativeAtCounter)->Unit(benchmark::kMicrosecond);

void BM_PowOwnerVsCloud(benchmark::State& state) {
  const bool owner_side = state.range(0) == 1;
  const auto& mod = standard_accumulator_modulus(1024);
  AccumulatorContext ctx = owner_side
                               ? AccumulatorContext::owner(mod, standard_qr_generator(1024))
                               : AccumulatorContext::public_side(
                                     AccumulatorParams{mod.n, standard_qr_generator(1024)});
  DeterministicRng rng(2);
  // 100-element product exponent: one interval's worth of work.
  std::vector<Bigint> primes;
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm2"});
  for (std::uint64_t i = 0; i < 100; ++i) primes.push_back(gen.representative(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.accumulate(primes));
  }
}
BENCHMARK(BM_PowOwnerVsCloud)->Arg(0)->Arg(1);  // 0=cloud, 1=owner

// g^±e against plain powm (table 0) at representative widths: a single
// representative (64/128), a short product (1024), one interval of 100 x
// 128-bit representatives (12800) and two (25600).  Table 1 is the flat
// schemes' widest table (2M-bit capacity, w = 12); table 2 is the interval
// schemes' table, sized to one split-free interval at the paper's
// parameters ((2·100 + 1)·128 bits, w = 9).  Every width the profitability
// rule routes to a table should come out ahead of powm here.
void BM_FixedBasePow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const bool negative = state.range(1) == 1;
  const auto table = state.range(2);
  const auto& mod = standard_accumulator_modulus(1024);
  const Bigint& g = standard_qr_generator(1024);
  auto with_table = [&](std::size_t capacity_bits) {
    PowerContext ctx(mod.n);
    ctx.prepare_fixed_base(g, capacity_bits);
    return ctx;
  };
  static const PowerContext kFlat = with_table(2'000'000);
  static const PowerContext kInterval = with_table((2 * 100 + 1) * 128);
  const PowerContext plain(mod.n);
  const PowerContext& ctx = table == 1 ? kFlat : table == 2 ? kInterval : plain;
  DeterministicRng rng(5);
  Bigint e = Bigint::random_bits(rng, bits);
  if (negative) e = -e;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(g, e));
  }
}
BENCHMARK(BM_FixedBasePow)
    ->ArgNames({"bits", "neg", "table"})
    ->ArgsProduct({{64, 128, 1024, 12800, 25600}, {0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// The 258 terms of one flagship verify batch (1024-bit modulus, 128-bit
// representatives), every exponent already scaled by a 64-bit batch
// coefficient: 84 descriptor witnesses (one representative each), 69
// membership chats (a part's product of 1-100 representatives), 15
// nonmembership parts (b^a and d^v over 1-3 outsiders), and the
// right-hand sides: the 69 membership parts' b, g and five signed roots
// (coefficient sums).  `multi` 1 evaluates the product with one multi_pow,
// 0 with one pow per term; `owner` picks the trapdoor context.
void BM_MultiPow(benchmark::State& state) {
  const bool multi = state.range(0) == 1;
  const bool owner = state.range(1) == 1;
  const auto& mod = standard_accumulator_modulus(1024);
  const PowerContext ctx = owner ? PowerContext(mod.n, mod.p, mod.q) : PowerContext(mod.n);
  DeterministicRng rng(8);
  std::vector<Bigint> bases, exps;
  auto term = [&](std::size_t exp_bits) {
    bases.push_back(Bigint::random_below(rng, mod.n));
    exps.push_back(Bigint::random_bits(rng, exp_bits));
  };
  const std::size_t reps_per_part[] = {1, 1, 2, 3, 8, 30, 100};
  for (int i = 0; i < 84; ++i) term(128 + 64);
  for (std::size_t i = 0; i < 69; ++i) term(128 * reps_per_part[i % 7] + 64);
  for (std::size_t i = 0; i < 15; ++i) {
    term(128 * (1 + i % 3) + 64);  // b^a: |a| is below the outsider product
    term(128 * (1 + i % 3) + 64);  // d^v
  }
  for (int i = 0; i < 69 + 1 + 5; ++i) term(64 + 7);
  for (auto _ : state) {
    if (multi) {
      benchmark::DoNotOptimize(ctx.multi_pow(bases, exps));
    } else {
      Bigint acc(1);
      for (std::size_t i = 0; i < bases.size(); ++i) acc = ctx.mul(acc, ctx.pow(bases[i], exps[i]));
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetLabel(std::to_string(bases.size()) + " terms");
}
BENCHMARK(BM_MultiPow)
    ->ArgNames({"multi", "owner"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SignVerify(benchmark::State& state) {
  DeterministicRng rng(3);
  SigningKey sk = generate_signing_key(rng, 1024);
  if (state.range(0) == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(sk.sign("message"));
  } else {
    Signature sig = sk.sign("message");
    for (auto _ : state) benchmark::DoNotOptimize(sk.verify_key().verify("message", sig));
  }
}
BENCHMARK(BM_SignVerify)->Arg(0)->Arg(1);  // 0=sign, 1=verify

void BM_MembershipWitnessCloud(benchmark::State& state) {
  const auto& mod = standard_accumulator_modulus(1024);
  auto ctx = AccumulatorContext::public_side(
      AccumulatorParams{mod.n, standard_qr_generator(1024)});
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm3"});
  std::vector<Bigint> rest;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    rest.push_back(gen.representative(static_cast<std::uint64_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(membership_witness(ctx, rest));
  }
}
BENCHMARK(BM_MembershipWitnessCloud)->Arg(100)->Arg(500)->Arg(2000);

void BM_NonmembershipWitnessCloud(benchmark::State& state) {
  const auto& mod = standard_accumulator_modulus(1024);
  auto ctx = AccumulatorContext::public_side(
      AccumulatorParams{mod.n, standard_qr_generator(1024)});
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm4"});
  std::vector<Bigint> set, outsiders;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    set.push_back(gen.representative(static_cast<std::uint64_t>(i)));
  }
  outsiders.push_back(gen.representative(std::uint64_t{1} << 40));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nonmembership_witness(ctx, set, outsiders));
  }
}
BENCHMARK(BM_NonmembershipWitnessCloud)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace vc

BENCHMARK_MAIN();
