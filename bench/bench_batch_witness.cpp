// Witness-generation engine ablation (the PR-1 optimisation stack).
//
// Workload: every per-element interval witness of an N-element set chunked
// into intervals of S elements — exactly what IntervalIndex recomputes when
// an interval's accumulator changes, and the dominant cost Fig 2/5 measure.
// Series, each producing bit-identical witnesses:
//   per-subset      seed path: membership_witness(interval \ {x}) per
//                   element on one thread — O(S) modexps of O(S·rep) bits
//                   per interval, O(N·S·rep) exponent bits overall
//   pooled          the same per-subset loop fanned out on a ThreadPool
//   batched         RootFactor remainder tree per interval — O(S·rep·log S)
//                   exponent bits per interval, one thread
//   batched+pool+fb batched trees on the pool with the fixed-base table
//                   for g enabled
// Every series is checked byte-for-byte against the seed output, and the
// batched witnesses are verified against the interval accumulators.
//
// Scale knobs (see bench_common.hpp):
//   VC_BATCH_N=10000      elements in the set
//   VC_INTERVAL_SIZE=100  elements per interval
//   VC_POOL_WORKERS=4     pool width for the pooled series
//   VC_MODULUS_BITS, VC_REP_BITS, VC_RUNS as usual
#include <cstdio>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "accumulator/batch_witness.hpp"
#include "accumulator/witness.hpp"
#include "bench_common.hpp"
#include "crypto/standard_params.hpp"
#include "primes/prime_rep.hpp"
#include "support/threadpool.hpp"

namespace vc::bench {
namespace {

struct Workload {
  std::vector<Bigint> reps;                   // all N representatives
  std::vector<std::size_t> interval_begin;    // interval k = [begin[k], begin[k+1])
};

// Runs `series` VC_RUNS times, returns mean seconds and (first run's)
// witnesses for the equivalence checks.
template <typename Fn>
double timed(std::size_t runs, std::vector<Bigint>& out, Fn&& series) {
  std::vector<double> secs;
  for (std::size_t r = 0; r < runs; ++r) {
    double elapsed = 0;
    std::vector<Bigint> got = [&] {
      ScopedTimer timer(elapsed);
      return series();
    }();
    secs.push_back(elapsed);
    if (r == 0) out = std::move(got);
  }
  return mean(secs);
}

std::vector<Bigint> per_subset(const AccumulatorContext& ctx, const Workload& w,
                               ThreadPool* pool) {
  std::vector<Bigint> out(w.reps.size());
  auto one_interval = [&](std::size_t k) {
    std::size_t lo = w.interval_begin[k], hi = w.interval_begin[k + 1];
    std::vector<Bigint> rest;
    rest.reserve(hi - lo - 1);
    for (std::size_t j = lo; j < hi; ++j) {
      rest.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        if (i != j) rest.push_back(w.reps[i]);
      }
      out[j] = membership_witness(ctx, rest);
    }
  };
  std::size_t intervals = w.interval_begin.size() - 1;
  if (pool != nullptr) {
    pool->parallel_for(0, intervals, one_interval);
  } else {
    for (std::size_t k = 0; k < intervals; ++k) one_interval(k);
  }
  return out;
}

std::vector<Bigint> batched(const AccumulatorContext& ctx, const Workload& w) {
  std::vector<Bigint> out(w.reps.size());
  for (std::size_t k = 0; k + 1 < w.interval_begin.size(); ++k) {
    std::size_t lo = w.interval_begin[k], hi = w.interval_begin[k + 1];
    std::span<const Bigint> piece(w.reps.data() + lo, hi - lo);
    std::vector<Bigint> ws = batch_membership_witnesses(ctx, piece);
    for (std::size_t j = 0; j < ws.size(); ++j) out[lo + j] = std::move(ws[j]);
  }
  return out;
}

int run() {
  const std::size_t n = env_size("VC_BATCH_N", 10000);
  const std::size_t interval = std::max<std::size_t>(2, env_size("VC_INTERVAL_SIZE", 100));
  const std::size_t modulus_bits = env_size("VC_MODULUS_BITS", 1024);
  const std::size_t rep_bits = env_size("VC_REP_BITS", 128);
  const std::size_t runs = std::max<std::size_t>(1, env_size("VC_RUNS", 1));
  const std::size_t workers = std::max<std::size_t>(1, env_size("VC_POOL_WORKERS", 4));

  std::printf("batch-witness engine: N=%zu interval=%zu modulus=%zu rep=%zu workers=%zu\n\n",
              n, interval, modulus_bits, rep_bits, workers);

  // The cloud generates witnesses without the trapdoor.
  AccumulatorContext pub = AccumulatorContext::public_side(AccumulatorParams{
      standard_accumulator_modulus(modulus_bits).n, standard_qr_generator(modulus_bits)});
  PrimeRepGenerator gen(PrimeRepConfig{.rep_bits = rep_bits, .domain = "bench.batch"});

  Workload w;
  w.reps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) w.reps.push_back(gen.representative(i));
  for (std::size_t lo = 0; lo < n; lo += interval) {
    w.interval_begin.push_back(lo);
  }
  w.interval_begin.push_back(n);

  ThreadPool pool(workers);

  TablePrinter table("batch_witness", {"series", "seconds", "speedup", "witnesses"});
  std::vector<Bigint> seed_out, pooled_out, batched_out, full_out;

  double seed_s = timed(runs, seed_out, [&] { return per_subset(pub, w, nullptr); });
  table.row({"per-subset (seed)", fmt(seed_s), "1.00x", std::to_string(seed_out.size())});

  double pooled_s = timed(runs, pooled_out, [&] { return per_subset(pub, w, &pool); });
  table.row({"pooled", fmt(pooled_s), fmt(seed_s / pooled_s, "%.2fx"),
             std::to_string(pooled_out.size())});

  double batched_s = timed(runs, batched_out, [&] { return batched(pub, w); });
  table.row({"batched", fmt(batched_s), fmt(seed_s / batched_s, "%.2fx"),
             std::to_string(batched_out.size())});

  AccumulatorContext tuned = pub;
  tuned.set_pool(&pool);
  tuned.enable_fixed_base((interval + 1) * rep_bits);
  double full_s = timed(runs, full_out, [&] { return batched(tuned, w); });
  table.row({"batched+pool+fb", fmt(full_s), fmt(seed_s / full_s, "%.2fx"),
             std::to_string(full_out.size())});

  // Equivalence: every series must emit the exact witness values the seed
  // path emits (witnesses are unique group elements, so equal values mean
  // identical bytes on the wire)...
  if (pooled_out != seed_out || batched_out != seed_out || full_out != seed_out) {
    std::printf("\nEQUIVALENCE FAILED: outputs differ from the seed path\n");
    return 1;
  }
  // ...and verify against the interval accumulators.
  for (std::size_t k = 0; k + 1 < w.interval_begin.size(); ++k) {
    std::size_t lo = w.interval_begin[k], hi = w.interval_begin[k + 1];
    Bigint c = pub.accumulate(std::span<const Bigint>(w.reps.data() + lo, hi - lo));
    for (std::size_t j = lo; j < hi; ++j) {
      if (!verify_membership(pub, c, batched_out[j], std::span<const Bigint>(&w.reps[j], 1))) {
        std::printf("\nVERIFY FAILED: witness %zu of interval %zu\n", j - lo, k);
        return 1;
      }
    }
  }
  std::printf("\nequivalence OK: %zu witnesses byte-identical across series and "
              "verified against the interval accumulators\n",
              seed_out.size());
  return 0;
}

}  // namespace
}  // namespace vc::bench

int main() { return vc::bench::run(); }
