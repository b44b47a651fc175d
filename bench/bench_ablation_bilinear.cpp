// Future-work comparison (§VII): RSA accumulator vs bilinear-map
// accumulator [41] on the operations the verifiable index performs.
//
// Same logical workload on both sides: accumulate a set, produce an
// aggregated membership witness for a 4-element subset, a nonmembership
// witness for one outsider, verify both.  Key structural differences the
// table surfaces:
//   - elements: RSA needs prime representatives (hash-and-test per element,
//     paid offline); bilinear hashes straight into Zr;
//   - witness generation: RSA-with-trapdoor ≈ bilinear-with-trapdoor
//     (cheap); without the trapdoor RSA pays a full-width exponentiation
//     while bilinear pays an O(n²) polynomial expansion + multi-exp, and
//     bilinear needs linear-size public powers;
//   - verification: RSA is one exponentiation; bilinear costs pairings;
//   - witness size: one G1 point (~2×32 B) vs one ring element (~128 B).
//
//   VC_BILIN_SIZES="100,400,1000"
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "pairing/bilinear_acc.hpp"
#include "primes/prime_rep.hpp"

using namespace vc;
using namespace vc::bench;

int main() {
  const auto sizes = env_sizes("VC_BILIN_SIZES", {100, 400, 1000});
  const std::size_t bits = env_size("VC_MODULUS_BITS", 1024);
  const std::uint32_t max_size = *std::max_element(sizes.begin(), sizes.end());

  // RSA side.
  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(bits),
                                         standard_qr_generator(bits));
  auto cloud = AccumulatorContext::public_side(owner.params());
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = 128, .domain = "bilin"});

  // Bilinear side (setup covers the largest set).
  DeterministicRng rng(2024, "bilin.setup");
  Stopwatch setup_sw;
  bn::BilinearSetup setup = bn::bilinear_setup(rng, max_size + 4);
  std::printf("# bilinear setup (owner, once): %.1fs for degree %u; public powers %.1f KB\n",
              setup_sw.seconds(), max_size + 4,
              static_cast<double>(max_size + 4) * (2 * 32 + 4 * 32) / 1024.0);
  std::printf("# RSA witness ~%zu B;  bilinear witness ~64 B (one G1 point)\n\n",
              (bits / 8) + 4);

  TablePrinter table("ablation_bilinear", {"set", "scheme", "elem_map_s", "acc_owner_s", "member_owner_s",
                      "member_public_s", "nonmem_owner_s", "verify_member_s"});

  for (std::uint32_t n : sizes) {
    // ---------------- RSA ----------------
    Stopwatch sw;
    std::vector<Bigint> reps;
    reps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      reps.push_back(gen.representative(static_cast<std::uint64_t>(i)));
    }
    double rsa_map = sw.seconds();
    sw.reset();
    Bigint c = owner.accumulate(reps);
    double rsa_acc = sw.seconds();
    std::vector<Bigint> subset(reps.begin(), reps.begin() + 4);
    std::vector<Bigint> rest(reps.begin() + 4, reps.end());
    sw.reset();
    Bigint w_owner = membership_witness(owner, rest);
    double rsa_mem_owner = sw.seconds();
    sw.reset();
    Bigint w_cloud = membership_witness(cloud, rest);
    double rsa_mem_public = sw.seconds();
    std::vector<Bigint> outsider = {gen.representative(std::uint64_t{1} << 40)};
    sw.reset();
    NonmembershipWitness nw = nonmembership_witness(owner, reps, outsider);
    double rsa_nonmem = sw.seconds();
    sw.reset();
    bool ok = verify_membership(cloud, c, w_cloud, subset);
    double rsa_verify = sw.seconds();
    if (!ok || w_owner != w_cloud || !verify_nonmembership(cloud, c, nw, outsider)) {
      std::fprintf(stderr, "RSA verification failed!\n");
      return 1;
    }
    table.row({std::to_string(n), "RSA", fmt(rsa_map, "%.3f"), fmt(rsa_acc),
               fmt(rsa_mem_owner), fmt(rsa_mem_public), fmt(rsa_nonmem),
               fmt(rsa_verify)});

    // ---------------- bilinear ----------------
    sw.reset();
    std::vector<Bigint> zr;
    zr.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      zr.push_back(bn::hash_to_zr(static_cast<std::uint64_t>(i)));
    }
    double bl_map = sw.seconds();
    sw.reset();
    bn::G1Point acc = bn::accumulate_trapdoor(setup.params, setup.trapdoor, zr);
    double bl_acc = sw.seconds();
    std::vector<Bigint> bsubset(zr.begin(), zr.begin() + 4);
    std::vector<Bigint> brest(zr.begin() + 4, zr.end());
    sw.reset();
    bn::G1Point bw = bn::subset_witness_trapdoor(setup.params, setup.trapdoor, brest);
    double bl_mem_owner = sw.seconds();
    sw.reset();
    bn::G1Point bw_pub = bn::subset_witness_public(setup.params, brest);
    double bl_mem_public = sw.seconds();
    Bigint boutsider = bn::hash_to_zr(std::uint64_t{1} << 40);
    sw.reset();
    auto bnw =
        bn::nonmembership_witness_trapdoor(setup.params, setup.trapdoor, zr, boutsider);
    double bl_nonmem = sw.seconds();
    sw.reset();
    bool bok = bn::verify_subset(setup.params, acc, bw, bsubset);
    double bl_verify = sw.seconds();
    if (!bok || !(bw == bw_pub) ||
        !bn::verify_nonmembership(setup.params, acc, bnw, boutsider)) {
      std::fprintf(stderr, "bilinear verification failed!\n");
      return 1;
    }
    table.row({std::to_string(n), "bilinear", fmt(bl_map, "%.3f"), fmt(bl_acc),
               fmt(bl_mem_owner), fmt(bl_mem_public), fmt(bl_nonmem), fmt(bl_verify)});
  }
  return 0;
}
