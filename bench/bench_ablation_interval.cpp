// Ablation — the paper's interval-size choice (§V-A picks 100).
//
// Sweeps the fixed interval size and reports online membership /
// nonmembership proof time plus proof size at a fixed set size.  Expected:
// proof time grows with interval size (bigger online products); proof size
// shrinks (fewer per-interval descriptors) — 100 sits at the elbow for the
// paper's workloads.
//
//   VC_ABL_SET=5000   VC_ABL_INTERVALS="25,50,100,200,400"
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "interval/interval_index.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  const std::uint32_t set_size = static_cast<std::uint32_t>(env_size("VC_ABL_SET", 5000));
  const auto interval_sizes = env_sizes("VC_ABL_INTERVALS", {25, 50, 100, 200, 400});
  const std::size_t bits = env_size("VC_MODULUS_BITS", 1024);

  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(bits),
                                         standard_qr_generator(bits));
  auto cloud = AccumulatorContext::public_side(owner.params());
  PrimeCache primes(PrimeRepConfig{.rep_bits = env_size("VC_REP_BITS", 128),
                                   .domain = "abl-interval"});

  std::vector<std::uint64_t> elements;
  for (std::uint32_t i = 0; i < set_size; ++i) elements.push_back(2 * i + 1);
  std::vector<std::uint64_t> members = {1001, 2001, 4001, 8001};
  std::vector<std::uint64_t> absents = {1000, 2000, 4000, 8000};

  std::printf("# Ablation: interval size sweep (set=%u, modulus=%zu bits)\n", set_size,
              bits);
  TablePrinter table("ablation_interval", {"interval", "build_s", "member_prove_s", "nonmember_prove_s",
                      "member_kb", "nonmember_kb"});

  for (std::uint32_t isz : interval_sizes) {
    Stopwatch sw;
    IntervalIndex idx = IntervalIndex::build(owner, elements, primes,
                                             IntervalConfig{.interval_size = isz});
    double build_s = sw.seconds();
    sw.reset();
    auto mp = idx.prove_membership(cloud, members, primes);
    double member_s = sw.seconds();
    sw.reset();
    auto np = idx.prove_nonmembership(cloud, absents, primes);
    double nonmember_s = sw.seconds();
    if (!IntervalIndex::verify_membership(owner, idx.root(), mp, members, primes) ||
        !IntervalIndex::verify_nonmembership(owner, idx.root(), np, absents, primes)) {
      std::fprintf(stderr, "ablation proof failed to verify!\n");
      return 1;
    }
    table.row({std::to_string(isz), fmt(build_s, "%.2f"), fmt(member_s),
               fmt(nonmember_s), fmt(static_cast<double>(mp.encoded_size()) / 1024, "%.2f"),
               fmt(static_cast<double>(np.encoded_size()) / 1024, "%.2f")});
  }
  return 0;
}
