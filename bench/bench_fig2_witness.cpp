// Fig 2 — flat (non)membership witness generation time vs set size.
//
// Paper: on a 2.9 GHz Core i7, both witness types grow linearly with set
// size and pass one second around 20,000 elements.  We reproduce the sweep
// with the cloud's view (no trapdoor): membership is one full-width modular
// exponentiation, nonmembership an extended gcd over the integer product.
//
//   VC_FIG2_SIZES="2000,5000,10000,15000,20000"   VC_RUNS=2
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "primes/prime_cache.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  const auto sizes = env_sizes("VC_FIG2_SIZES", {2000, 5000, 10000, 15000, 20000});
  const std::size_t runs = env_size("VC_RUNS", 2);
  const std::size_t bits = env_size("VC_MODULUS_BITS", 1024);
  const std::size_t rep_bits = env_size("VC_REP_BITS", 128);

  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(bits),
                                         standard_qr_generator(bits));
  auto cloud = AccumulatorContext::public_side(owner.params());
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = rep_bits, .domain = "fig2"});

  std::printf("# Fig 2: witness generation time vs set size "
              "(modulus=%zu bits, reps=%zu bits, cloud side)\n",
              bits, rep_bits);
  TablePrinter table("fig2_witness", {"set_size", "membership_s", "nonmembership_s"});

  // Pre-generate all representatives once (the prime manager's job).
  std::vector<Bigint> reps;
  std::uint32_t max_size = *std::max_element(sizes.begin(), sizes.end());
  reps.reserve(max_size);
  for (std::uint32_t i = 0; i < max_size; ++i) {
    reps.push_back(gen.representative(static_cast<std::uint64_t>(i)));
  }
  std::vector<Bigint> outsiders;
  for (std::uint32_t i = 0; i < 4; ++i) {
    outsiders.push_back(gen.representative(static_cast<std::uint64_t>(max_size + i)));
  }

  for (std::uint32_t size : sizes) {
    std::span<const Bigint> set(reps.data(), size);
    std::vector<double> mem_times, nonmem_times;
    for (std::size_t r = 0; r < runs; ++r) {
      // Membership witness for 4 values: exponentiate by the remaining product.
      std::vector<Bigint> rest(set.begin() + 4, set.end());
      Stopwatch sw;
      Bigint w = membership_witness(cloud, rest);
      mem_times.push_back(sw.seconds());
      sw.reset();
      NonmembershipWitness nw = nonmembership_witness(cloud, set, outsiders);
      nonmem_times.push_back(sw.seconds());
      // Keep the optimizer honest and the math honest.
      Bigint c = owner.accumulate(set);
      std::vector<Bigint> subset(set.begin(), set.begin() + 4);
      if (!verify_membership(owner, c, w, subset) ||
          !verify_nonmembership(owner, c, nw, outsiders)) {
        std::fprintf(stderr, "witness verification failed!\n");
        return 1;
      }
    }
    table.row({std::to_string(size), fmt(mean(mem_times)), fmt(mean(nonmem_times))});
  }
  return 0;
}
