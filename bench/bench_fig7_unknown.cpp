// Fig 7 — unknown-keyword proof generation time vs dictionary size:
// online flat nonmembership witness vs pre-computed gap-interval witness.
//
// Paper: interval-based ≈ constant sub-millisecond; flat nonmembership
// grows with dictionary size (17 s at 50k words on the Xeon).  Expected
// shape: two-orders-of-magnitude gap, flat curve growing linearly.
//
//   VC_FIG7_DICT="2000,5000,10000,20000"   VC_FIG7_PROBES=3
#include <set>

#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "interval/dict_intervals.hpp"

using namespace vc;
using namespace vc::bench;

namespace {

std::vector<std::string> make_dictionary(std::size_t words) {
  // Deterministic sorted unique words.
  std::vector<std::string> dict;
  dict.reserve(words);
  SynthSpec spec{.name = "fig7", .vocab_size = static_cast<std::uint32_t>(words * 2),
                 .seed = 77};
  std::set<std::string> uniq;
  for (std::uint32_t r = 0; uniq.size() < words; ++r) uniq.insert(synth_word(spec, r));
  dict.assign(uniq.begin(), uniq.end());
  return dict;
}

}  // namespace

int main() {
  const auto dict_sizes = env_sizes("VC_FIG7_DICT", {2000, 5000, 10000, 20000});
  const std::size_t probes = env_size("VC_FIG7_PROBES", 3);
  const std::size_t bits = env_size("VC_MODULUS_BITS", 1024);
  const std::size_t rep_bits = env_size("VC_REP_BITS", 128);

  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(bits),
                                         standard_qr_generator(bits));
  auto cloud = AccumulatorContext::public_side(owner.params());
  PrimeRepConfig cfg{.rep_bits = rep_bits, .domain = "vc.dict"};
  PrimeRepGenerator word_gen(cfg);

  std::printf("# Fig 7: unknown-keyword proof time (s) vs dictionary size\n");
  TablePrinter table("fig7_unknown", {"dict_words", "nonmembership_s", "interval_gap_s", "build_gap_s"});

  for (std::uint32_t words : dict_sizes) {
    auto dict_words = make_dictionary(words);

    // Flat baseline: representative per word + online aggregated
    // nonmembership witness over the whole dictionary (cloud side).
    std::vector<Bigint> word_reps;
    word_reps.reserve(dict_words.size());
    for (const auto& w : dict_words) word_reps.push_back(word_gen.representative(w));

    std::vector<std::string> unknowns;
    for (std::size_t i = 0; i < probes; ++i) {
      unknowns.push_back("zz" + std::to_string(i) + "notaword");
    }

    std::vector<double> flat_times;
    for (const auto& probe : unknowns) {
      std::vector<Bigint> outsider = {word_gen.representative(probe)};
      Stopwatch sw;
      NonmembershipWitness w = nonmembership_witness(cloud, word_reps, outsider);
      flat_times.push_back(sw.seconds());
      (void)w;
    }

    // Interval-based: the gap structure is pre-computed offline; online
    // cost is a binary search + witness lookup.
    Stopwatch build_sw;
    DictionaryIntervals gaps = DictionaryIntervals::build(owner, dict_words, cfg);
    double build_s = build_sw.seconds();

    std::vector<double> gap_times;
    for (const auto& probe : unknowns) {
      Stopwatch sw;
      GapProof p = gaps.prove_unknown(probe);
      gap_times.push_back(sw.seconds());
      if (!DictionaryIntervals::verify_unknown(owner, gaps.root(), probe, p, cfg)) {
        std::fprintf(stderr, "gap proof failed to verify!\n");
        return 1;
      }
    }
    table.row({std::to_string(words), fmt(mean(flat_times), "%.4f"),
               fmt(mean(gap_times), "%.6f"), fmt(build_s, "%.2f")});
  }
  return 0;
}
