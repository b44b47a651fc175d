// Ablation — security parameter sweep: witness generation and verification
// cost at 512-, 1024- and 2048-bit moduli (the paper fixes 1024).
//
//   VC_ABL_SET=2000
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "primes/prime_cache.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  const std::size_t set_size = env_size("VC_ABL_SET", 2000);
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "abl-mod"});
  std::vector<Bigint> set;
  for (std::size_t i = 0; i < set_size; ++i) {
    set.push_back(gen.representative(static_cast<std::uint64_t>(i)));
  }
  std::vector<Bigint> subset(set.begin(), set.begin() + 4);
  std::vector<Bigint> rest(set.begin() + 4, set.end());
  std::vector<Bigint> outsiders = {gen.representative(std::uint64_t{1} << 40)};

  std::printf("# Ablation: modulus size sweep (|X|=%zu, 128-bit reps)\n", set_size);
  TablePrinter table("ablation_modulus", {"modulus_bits", "owner_member_s", "cloud_member_s",
                      "cloud_nonmember_s", "verify_member_s"});

  for (std::size_t bits : {512ul, 1024ul, 2048ul}) {
    auto owner = AccumulatorContext::owner(standard_accumulator_modulus(bits),
                                           standard_qr_generator(bits));
    auto cloud = AccumulatorContext::public_side(owner.params());
    Bigint c = owner.accumulate(set);

    Stopwatch sw;
    Bigint w_owner = membership_witness(owner, rest);
    double owner_member = sw.seconds();
    sw.reset();
    Bigint w_cloud = membership_witness(cloud, rest);
    double cloud_member = sw.seconds();
    sw.reset();
    NonmembershipWitness nw = nonmembership_witness(cloud, set, outsiders);
    double cloud_nonmember = sw.seconds();
    sw.reset();
    bool ok = verify_membership(cloud, c, w_cloud, subset);
    double verify_member = sw.seconds();
    if (!ok || w_owner != w_cloud || !verify_nonmembership(owner, c, nw, outsiders)) {
      std::fprintf(stderr, "modulus ablation verification failed!\n");
      return 1;
    }
    table.row({std::to_string(bits), fmt(owner_member), fmt(cloud_member),
               fmt(cloud_nonmember), fmt(verify_member)});
  }
  return 0;
}
