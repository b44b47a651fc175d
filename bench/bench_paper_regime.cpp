// The paper's flagship query regime, reconstructed exactly (§V-B).
//
// The Enron query "Rescheduling Mtg Mary" hits inverted indices of 41,269 /
// 2,795 / 3,227 postings with a 31-document intersection — posting lists
// three orders of magnitude larger than the result.  The corpus-scaled
// sweeps (bench_fig5/6) cannot reach that ratio on one core, so this bench
// synthesizes the ratio directly: three terms with paper-sized posting
// lists and a 31-document intersection, interval size 100 as in the paper,
// then runs all four schemes on the single query.
//
// Expected (the paper's Fig 5/6 story at its own operating point): flat
// witnesses cost seconds, interval witnesses milliseconds; the Accumulator
// integrity ships thousands of check docs; Hybrid picks the cheaper
// integrity and stays fastest.
//
// Each response is verified warm (median of five after one untimed pass)
// twice: by the owner with the trapdoor (verify_warm_s) and by a third
// party holding only the public parameters (verify_public_s).
//
//   VC_REGIME_BIG=20000 VC_REGIME_SMALL=1500 VC_REGIME_RESULT=31
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "support/threadpool.hpp"
#include "vindex/index_builder.hpp"

using namespace vc;
using namespace vc::bench;

namespace {

// Builds a corpus where three crafted terms have exactly the requested
// posting-list sizes and intersection: docs [0, result) contain all three
// terms; the big term fills docs [0, big); the two small terms take
// disjoint doc ranges above `big`.
Corpus regime_corpus(std::uint32_t big, std::uint32_t small, std::uint32_t result) {
  Corpus corpus("regime");
  std::uint32_t total = big + 2 * (small - result);
  for (std::uint32_t d = 0; d < total; ++d) {
    std::string text;
    if (d < result) {
      text = "bigterm smalltermone smalltermtwo";
    } else if (d < big) {
      text = "bigterm";
    } else if (d < big + (small - result)) {
      text = "smalltermone";
    } else {
      text = "smalltermtwo";
    }
    corpus.add(std::to_string(d), std::move(text));
  }
  return corpus;
}

}  // namespace

int main() {
  const std::uint32_t big = static_cast<std::uint32_t>(env_size("VC_REGIME_BIG", 20000));
  const std::uint32_t small =
      static_cast<std::uint32_t>(env_size("VC_REGIME_SMALL", 1500));
  const std::uint32_t result =
      static_cast<std::uint32_t>(env_size("VC_REGIME_RESULT", 31));

  VerifiableIndexConfig cfg = bench_index_config();
  cfg.interval_size = env_size("VC_INTERVAL_SIZE", 100);  // the paper's value
  // Bloom budget scaled for the big set (load ~1, the paper's optimum).
  cfg.bloom.counters = static_cast<std::uint32_t>(env_size("VC_BLOOM_M", big));

  std::printf("# Paper regime: |X1|=%u, |X2|=|X3|=%u, |result|=%u, interval=%zu, m=%u\n",
              big, small, result, cfg.interval_size, cfg.bloom.counters);

  auto owner_ctx = AccumulatorContext::owner(
      standard_accumulator_modulus(cfg.modulus_bits),
      standard_qr_generator(cfg.modulus_bits));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1234, "regime.keys");
  SigningKey owner_key = generate_signing_key(rng, cfg.modulus_bits);
  SigningKey cloud_key = generate_signing_key(rng, cfg.modulus_bits);
  ThreadPool pool;

  Stopwatch sw;
  Corpus corpus = regime_corpus(big, small, result);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                                owner_key, cfg, pool);
  std::printf("# owner build (offline): %.1fs, %llu records\n", sw.seconds(),
              static_cast<unsigned long long>(vidx.index().record_count()));

  SearchEngine engine(vidx.snapshot(), pub_ctx, cloud_key, &pool);
  // The owner verifies with the trapdoor; a third party (§III-F) holds only
  // the public parameters and pays full-width exponents.
  ResultVerifier owner_verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);
  ResultVerifier public_verifier(pub_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);

  // Median of five verifies after one untimed pass that warms the
  // verifier's prime caches.
  auto verify_warm_s = [](const ResultVerifier& verifier, const SearchResponse& resp) {
    verifier.verify(resp);
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      verifier.verify(resp);
      times.push_back(sw.seconds());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };

  Query q{.id = 1, .keywords = {"bigterm", "smalltermone", "smalltermtwo"}};
  TablePrinter table("paper_regime", {"scheme", "proof_s", "proof_kb", "verify_warm_s",
                                      "verify_public_s", "integrity"});
  for (SchemeKind scheme : {SchemeKind::kBloom, SchemeKind::kAccumulator,
                            SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
    SearchResponse resp = engine.search(q, scheme);
    const double owner_s = verify_warm_s(owner_verifier, resp);
    const double public_s = verify_warm_s(public_verifier, resp);
    const auto& multi = std::get<MultiKeywordResponse>(resp.body);
    const char* integrity =
        std::holds_alternative<BloomIntegrity>(multi.proof.integrity) ? "bloom"
                                                                      : "accumulator";
    table.row({scheme_name(scheme), fmt(resp.proof_seconds),
               fmt(static_cast<double>(resp.proof_size_bytes()) / 1024, "%.2f"),
               fmt(owner_s), fmt(public_s), integrity});
  }
  return 0;
}
