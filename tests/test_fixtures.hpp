// Shared owner/cloud testbed for the end-to-end test suites.
//
// Building a verifiable index is the expensive part of every protocol-level
// test (key generation, prime precomputation, accumulation, signing), and
// three suites used to each carry their own copy of the same setup code.
// TestBed holds the whole cast — owner and public accumulator contexts,
// both signing keys, the worker pool, the synthetic corpus spec and the
// built index — and hands out engines and verifiers wired against it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "crypto/standard_params.hpp"
#include "search/engine.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"

namespace vc::testbed {

// The suites' shared small-parameter config: 512-bit modulus, 64-bit prime
// representatives, interval size 8 — big enough to exercise every proof
// path, small enough to keep suite runtime in seconds.
inline VerifiableIndexConfig small_config(std::uint32_t bloom_counters = 512,
                                          std::string bloom_domain = "vc.bloom.docs") {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.bloom = BloomParams{.counters = bloom_counters, .hashes = 1,
                          .domain = std::move(bloom_domain)};
  return cfg;
}

class TestBed {
 public:
  TestBed(SynthSpec corpus, VerifiableIndexConfig cfg, std::uint64_t key_seed = 201,
          std::size_t threads = 4)
      : spec(std::move(corpus)),
        config(std::move(cfg)),
        owner_ctx(AccumulatorContext::owner(standard_accumulator_modulus(config.modulus_bits),
                                            standard_qr_generator(config.modulus_bits))),
        pub_ctx(AccumulatorContext::public_side(owner_ctx.params())),
        owner_key(make_key(key_seed, 0)),
        cloud_key(make_key(key_seed, 1)),
        pool(threads),
        vidx(IndexBuilder::build(InvertedIndex::build(generate_corpus(spec)), owner_ctx,
                                    owner_key, config, pool)) {}

  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  [[nodiscard]] ResultVerifier owner_verifier() const {
    return ResultVerifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(), config);
  }
  [[nodiscard]] ResultVerifier third_party_verifier() const {
    return ResultVerifier(pub_ctx, owner_key.verify_key(), cloud_key.verify_key(), config);
  }

  // The first n surface words (by Zipf rank) whose stem is indexed — in
  // this kind of corpus they are guaranteed to co-occur.
  [[nodiscard]] std::vector<std::string> frequent_terms(std::size_t n) const {
    std::vector<std::string> out;
    for (std::uint32_t rank = 0; out.size() < n; ++rank) {
      std::string w = synth_word(spec, rank);
      if (vidx.find(porter_stem(w)) != nullptr) out.push_back(w);
    }
    return out;
  }

  static Query make_query(std::vector<std::string> kws, std::uint64_t id = 1) {
    return Query{.id = id, .keywords = std::move(kws)};
  }

  SynthSpec spec;
  VerifiableIndexConfig config;
  AccumulatorContext owner_ctx;
  AccumulatorContext pub_ctx;
  SigningKey owner_key;
  SigningKey cloud_key;
  ThreadPool pool;
  IndexBuilder vidx;

 private:
  static SigningKey make_key(std::uint64_t seed, std::uint32_t index) {
    DeterministicRng rng(seed, "vc.testbed.keys");
    SigningKey key = generate_signing_key(rng, 512);
    for (std::uint32_t i = 0; i < index; ++i) key = generate_signing_key(rng, 512);
    return key;
  }
};

}  // namespace vc::testbed
