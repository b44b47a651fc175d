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

void BM_PrimeRepresentative(benchmark::State& state) {
  PrimeRepGenerator gen(PrimeRepConfig{
      .rep_bits = static_cast<std::size_t>(state.range(0)), .domain = "bm", .mr_rounds = 28});
  std::uint64_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.representative(e++));
  }
}
BENCHMARK(BM_PrimeRepresentative)->Arg(64)->Arg(128)->Arg(256);

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
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm2", .mr_rounds = 28});
  for (std::uint64_t i = 0; i < 100; ++i) primes.push_back(gen.representative(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.accumulate(primes));
  }
}
BENCHMARK(BM_PowOwnerVsCloud)->Arg(0)->Arg(1);  // 0=cloud, 1=owner

// g^±e on the prover's table (2M-bit capacity, the widest a table gets)
// against plain powm, at representative widths: a single representative
// (64/128), a short product (1024), one interval of 100 x 128-bit
// representatives (12800) and two (25600).  Every width the profitability
// rule routes to the table should come out ahead of powm here.
void BM_FixedBasePow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const bool negative = state.range(1) == 1;
  const bool table = state.range(2) == 1;
  const auto& mod = standard_accumulator_modulus(1024);
  const Bigint& g = standard_qr_generator(1024);
  static const PowerContext kTable = [&] {
    PowerContext ctx(mod.n);
    ctx.prepare_fixed_base(g, 2'000'000);
    return ctx;
  }();
  const PowerContext plain(mod.n);
  const PowerContext& ctx = table ? kTable : plain;
  DeterministicRng rng(5);
  Bigint e = Bigint::random_bits(rng, bits);
  if (negative) e = -e;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(g, e));
  }
}
BENCHMARK(BM_FixedBasePow)
    ->ArgNames({"bits", "neg", "table"})
    ->ArgsProduct({{64, 128, 1024, 12800, 25600}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

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
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm3", .mr_rounds = 28});
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
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bm4", .mr_rounds = 28});
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
