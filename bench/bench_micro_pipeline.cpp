// Micro-benchmarks of the non-cryptographic pipeline (google-benchmark):
// tokenizer/stemmer throughput, Bloom operations, arithmetic coding, set
// operations and interval proving — the constants under Figs 5/8.
#include <benchmark/benchmark.h>

#include "bloom/arith_coder.hpp"
#include "bloom/compressed_bloom.hpp"
#include "crypto/standard_params.hpp"
#include "interval/interval_index.hpp"
#include "setops/setops.hpp"
#include "support/rng.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"

namespace vc {
namespace {

void BM_Tokenize(benchmark::State& state) {
  Corpus corpus = generate_corpus(SynthSpec{.num_docs = 20, .vocab_size = 500, .seed = 1});
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const auto& doc : corpus) {
      benchmark::DoNotOptimize(tokenize(doc.text));
      bytes += doc.text.size();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Tokenize);

void BM_Analyze(benchmark::State& state) {
  Corpus corpus = generate_corpus(SynthSpec{.num_docs = 20, .vocab_size = 500, .seed = 2});
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const auto& doc : corpus) {
      benchmark::DoNotOptimize(analyze(doc.text));
      bytes += doc.text.size();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Analyze);

void BM_PorterStem(benchmark::State& state) {
  const char* words[] = {"relational",  "hopefulness", "running",  "connections",
                         "traditional", "sensational", "agencies", "generalization"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(porter_stem(words[i++ % 8]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_BloomAdd(benchmark::State& state) {
  CountingBloom bloom(BloomParams{.counters = 4096, .hashes = 1, .domain = "bm"});
  std::uint64_t e = 0;
  for (auto _ : state) {
    bloom.add(e++);
  }
}
BENCHMARK(BM_BloomAdd);

void BM_BloomCompress(benchmark::State& state) {
  DeterministicRng rng(3);
  U64Set xs;
  for (std::int64_t i = 0; i < state.range(0); ++i) xs.push_back(rng.next_u64());
  CountingBloom bloom = CountingBloom::from_set(
      BloomParams{.counters = 4096, .hashes = 1, .domain = "bm"}, xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress_bloom(bloom));
  }
}
BENCHMARK(BM_BloomCompress)->Arg(200)->Arg(2000);

void BM_ArithCode(benchmark::State& state) {
  DeterministicRng rng(4);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 4096; ++i) symbols.push_back(rng.below(100) < 90 ? 0 : rng.below(8));
  for (auto _ : state) {
    ArithEncoder enc;
    AdaptiveModel model(256);
    for (auto s : symbols) model.encode(enc, s);
    benchmark::DoNotOptimize(enc.finish());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ArithCode);

void BM_SetIntersection(benchmark::State& state) {
  U64Set a, b;
  for (std::uint64_t i = 0; i < 100000; i += 3) a.push_back(i);
  for (std::uint64_t i = 0; i < 100000; i += 5) b.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set_intersection(a, b));
  }
}
BENCHMARK(BM_SetIntersection);

void BM_IntervalProveMembership(benchmark::State& state) {
  auto owner = AccumulatorContext::owner(standard_accumulator_modulus(1024),
                                         standard_qr_generator(1024));
  auto cloud = AccumulatorContext::public_side(owner.params());
  PrimeCache primes(PrimeRepConfig{.rep_bits = 128, .domain = "bm-int"});
  std::vector<std::uint64_t> elems;
  for (std::uint64_t i = 0; i < 5000; ++i) elems.push_back(2 * i);
  IntervalIndex idx =
      IntervalIndex::build(owner, elems, primes,
                           IntervalConfig{.interval_size =
                                              static_cast<std::size_t>(state.range(0))});
  std::vector<std::uint64_t> values = {100, 2000, 4000, 9000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.prove_membership(cloud, values, primes));
  }
}
BENCHMARK(BM_IntervalProveMembership)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vc

BENCHMARK_MAIN();
