// vcbench — the measuring half of the vcsearch benchmark (run.py is the
// other half: it builds this program, runs it, and turns its raw output
// into the benchmark's metrics).
//
// One invocation runs one workload end to end, in process and over
// loopback: owner build -> EpochStore -> CloudService::publish_from ->
// HttpFrontend -> one closed-loop client that sends pre-signed queries and
// verifies every response with an owner-context ResultVerifier.
//
//   vcbench --workload flagship_regime|update_stream --seed N
//           --seconds S --trace 0|1 --work-dir DIR --out FILE
//
// Every input (corpus, request order, update batches) is generated from
// --seed.  The program writes raw samples, counter deltas and (with
// --trace 1) spans as JSON to --out; it computes no statistics itself.
// Layers are timed only from outside, at their public functions.
#include <gmp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/standard_params.hpp"
#include "data/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"
#include "vindex/index_builder.hpp"
#include "vindex/witness_tier.hpp"

#ifndef VC_BENCH_BUILD_TYPE
#define VC_BENCH_BUILD_TYPE "unknown"
#endif

using namespace vc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Clocks

const Clock::time_point kStart = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kStart).count();
}

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) * 1e-6; }

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

void progress(const char* what) {
  std::fprintf(stderr, "vcbench: %8.2fs %s\n", static_cast<double>(now_ns()) * 1e-9, what);
}

// ---------------------------------------------------------------------------
// Host speed.  On a shared host the same work runs up to ~1.8x slower while
// other guests load the physical cores under this machine's CPUs, and that
// state changes within a second, independently per CPU.  SpeedProbe times a
// fixed modexp on every CPU at once, at points where the benchmark is
// otherwise idle; benchlib.host_slowdown turns a phase's readings into the
// factor its timings are scaled by.

// A 1024-bit modexp on fixed operands, GMP only (no vcsearch code): the
// unit the benchmark measures host speed in.
class Modexp {
 public:
  Modexp() {
    gmp_randinit_mt(rs_);
    gmp_randseed_ui(rs_, 20150101);
    mpz_inits(m_, b_, e_, r_, nullptr);
    mpz_urandomb(m_, rs_, 1024);
    mpz_setbit(m_, 1023);
    mpz_setbit(m_, 0);
    mpz_urandomb(b_, rs_, 1024);
    mpz_mod(b_, b_, m_);
    mpz_urandomb(e_, rs_, 1024);
  }
  ~Modexp() {
    mpz_clears(m_, b_, e_, r_, nullptr);
    gmp_randclear(rs_);
  }
  Modexp(const Modexp&) = delete;
  Modexp& operator=(const Modexp&) = delete;

  // Wall ns per modexp over `ops` of them.
  double time_ns(int ops) {
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < ops; ++k) mpz_powm(r_, b_, e_, m_);
    return static_cast<double>(now_ns() - t0) / ops;
  }

 private:
  gmp_randstate_t rs_;
  mpz_t m_, b_, e_, r_;
};

class SpeedProbe {
 public:
  static constexpr int kOps = 2;  // 1024-bit modexps per CPU per probe

  struct Reading {
    double t_ms;               // when the probe ended
    std::vector<double> wall;  // ns per modexp, one per CPU
  };

  SpeedProbe() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    if (cpus.empty()) cpus.push_back(-1);  // unpinned
    n_ = cpus.size();
    wall_.assign(n_, 0);
    cpu_.assign(n_, 0);
    try {
      for (std::size_t i = 0; i < n_; ++i) {
        threads_.emplace_back([this, i, cpu = cpus[i]] { work(i, cpu); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~SpeedProbe() { stop(); }

  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Runs the kernel on every CPU at once and records the reading.
  void probe() {
    std::int64_t t0 = now_ns();
    std::unique_lock<std::mutex> lk(mu_);
    done_ = 0;
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lk, [&] { return done_ == n_; });
    std::int64_t t1 = now_ns();
    readings.push_back(Reading{static_cast<double>(t1) * 1e-6, wall_});
    for (double c : cpu_) cpu_s += c;
    busy_ns += t1 - t0;
  }

  // Written by probe() only, so the calling thread reads them unlocked.
  std::vector<Reading> readings;
  std::int64_t busy_ns = 0;  // wall time spent probing
  double cpu_s = 0;          // CPU time the probe threads spent

 private:
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void work(std::size_t slot, int cpu) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
    Modexp kernel;
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) break;
        seen = generation_;
      }
      const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      const double per_op = kernel.time_ns(kOps);
      const double cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
      std::lock_guard<std::mutex> lk(mu_);
      wall_[slot] = per_op;
      cpu_[slot] = cpu;
      if (++done_ == n_) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  std::size_t n_ = 0;  // probe threads; fixed once they start
  // Guarded by mu_.
  std::vector<double> wall_;  // this probe's ns per modexp, per CPU
  std::vector<double> cpu_;   // this probe's thread CPU seconds, per CPU
  std::uint64_t generation_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: they use every member above
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory by the thread that owns the Tracer, written out
// at exit.  A null Tracer makes every Span a no-op (the untraced run).

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;  // 0 = root
  std::uint64_t request;
};

class Tracer {
 public:
  Tracer() : next_id_(std::int64_t{1} << 40) {}

  std::int64_t open() {
    std::int64_t id = ++next_id_;
    stack_.push_back(id);
    return id;
  }
  void close(const char* name, std::int64_t start, std::int64_t id, std::uint64_t request) {
    stack_.pop_back();
    spans.push_back(SpanRec{name, start, now_ns(), id,
                            stack_.empty() ? 0 : stack_.back(), request});
  }

  std::vector<SpanRec> spans;

 private:
  std::int64_t next_id_;
  std::vector<std::int64_t> stack_;
};

class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t request)
      : t_(t), name_(name), request_(request) {
    if (t_ != nullptr) {
      id_ = t_->open();
      start_ = now_ns();
    }
  }
  ~Span() {
    if (t_ != nullptr) t_->close(name_, start_, id_, request_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  const char* name_;
  std::uint64_t request_;
  std::int64_t id_ = 0;
  std::int64_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer for the raw output.

class Json {
 public:
  void key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void begin_obj() { sep(); out_ += '{'; fresh_ = true; }
  void end_obj() { out_ += '}'; fresh_ = false; }
  void begin_arr() { sep(); out_ += '['; fresh_ = true; }
  void end_arr() { out_ += ']'; fresh_ = false; }
  void num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
  }
  void num(std::int64_t v) { sep(); out_ += std::to_string(v); }
  void num(std::uint64_t v) { sep(); out_ += std::to_string(v); }
  void str(const std::string& s) {
    sep();
    out_ += '"';
    out_ += obs::json_escape(s);
    out_ += '"';
  }
  void field(const char* k, double v) { key(k); num(v); }
  void field(const char* k, std::uint64_t v) { key(k); num(v); }
  void field(const char* k, const std::string& v) { key(k); str(v); }
  void array(const char* k, const std::vector<double>& v) {
    key(k);
    begin_arr();
    for (double x : v) num(x);
    end_arr();
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty() && out_.back() != ':') out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Process-wide counters read from the metrics registry (the same values
// vcsearch-serve exports at /metrics).

struct Counters {
  double pow = 0;
  double fixed_hit = 0, fixed_miss = 0;
  double prime_hit = 0, prime_miss = 0;
  double hybrid_acc = 0, hybrid_bloom = 0;
  double hybrid_est_s = 0, hybrid_actual_s = 0;
  double tier_hit = 0, tier_miss = 0;

  static Counters read() {
    auto& reg = obs::MetricsRegistry::global();
    auto c = [&](const char* name, const char* labels) {
      return static_cast<double>(reg.counter(name, labels).value());
    };
    auto t = [&](const char* name) {
      return reg.time_counter(name, "choice=\"accumulator\"").seconds() +
             reg.time_counter(name, "choice=\"bloom\"").seconds();
    };
    Counters k;
    k.pow = c("vc_pow_total", "");
    k.fixed_hit = c("vc_fixedbase_total", "result=\"hit\"");
    k.fixed_miss = c("vc_fixedbase_total", "result=\"miss\"");
    k.prime_hit = c("vc_prime_lookup_total", "result=\"hit\"");
    k.prime_miss = c("vc_prime_lookup_total", "result=\"miss\"");
    k.hybrid_acc = c("vc_hybrid_choice_total", "choice=\"accumulator\"");
    k.hybrid_bloom = c("vc_hybrid_choice_total", "choice=\"bloom\"");
    k.hybrid_est_s = t("vc_hybrid_estimated_seconds_total");
    k.hybrid_actual_s = t("vc_hybrid_actual_seconds_total");
    k.tier_hit = c("vc_witness_tier_hits", "");
    k.tier_miss = c("vc_witness_tier_misses", "");
    return k;
  }

  Counters operator-(const Counters& o) const {
    return Counters{pow - o.pow,
                    fixed_hit - o.fixed_hit,
                    fixed_miss - o.fixed_miss,
                    prime_hit - o.prime_hit,
                    prime_miss - o.prime_miss,
                    hybrid_acc - o.hybrid_acc,
                    hybrid_bloom - o.hybrid_bloom,
                    hybrid_est_s - o.hybrid_est_s,
                    hybrid_actual_s - o.hybrid_actual_s,
                    tier_hit - o.tier_hit,
                    tier_miss - o.tier_miss};
  }

  void write(Json& j) const {
    j.begin_obj();
    j.field("pow", pow);
    j.field("fixedbase_hit", fixed_hit);
    j.field("fixedbase_miss", fixed_miss);
    j.field("prime_hit", prime_hit);
    j.field("prime_miss", prime_miss);
    j.field("hybrid_accumulator", hybrid_acc);
    j.field("hybrid_bloom", hybrid_bloom);
    j.field("hybrid_estimated_s", hybrid_est_s);
    j.field("hybrid_actual_s", hybrid_actual_s);
    j.field("tier_hit", tier_hit);
    j.field("tier_miss", tier_miss);
    j.end_obj();
  }
};

// ---------------------------------------------------------------------------
// Check bookkeeping: every failed check counts once against its request.

class Checks {
 public:
  void pass() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& why) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    if (errors_.size() < 8) errors_.push_back(why);
  }
  // Adds another tally (the warm-up's) to this one.
  void merge(const Checks& other, const std::string& prefix) {
    attempted_ += other.attempted();
    failed_ += other.failed();
    for (const auto& e : other.errors()) {
      std::lock_guard<std::mutex> lk(mu_);
      if (errors_.size() < 8) errors_.push_back(prefix + e);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lk(mu_);
    return errors_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Workload inputs

struct PoolQuery {
  SignedQuery signed_query;
  std::string body_hex;   // pre-encoded request body
  bool multi = false;     // conjunctive with >= 2 known keywords (Prover::prove runs)
  bool require_accumulator_integrity = false;
  std::size_t expect_docs = 0;  // exact result size when nonzero (flagship)
};

void shuffle(std::vector<std::uint32_t>& v, DeterministicRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

std::vector<std::uint32_t> permutation(std::size_t n, DeterministicRng& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  shuffle(p, rng);
  return p;
}

// A lowercase token the tokenizer keeps verbatim: no vowels, so no stemming
// rule applies, and long enough to never be a stop word.
std::string seeded_term(DeterministicRng& rng) {
  static const char kLetters[] = "bcdfghjklmnpqrtvwxz";
  std::string s = "t";
  for (int i = 0; i < 9; ++i) s += kLetters[rng.below(sizeof(kLetters) - 1)];
  return s;
}

// The paper's §V-B regime: three terms with |X1| = big, |X2| = |X3| = small
// postings and a `result`-document three-way intersection, the term names
// and document roles drawn from `seed`.
Corpus flagship_corpus(std::uint64_t seed, std::uint32_t big, std::uint32_t small,
                       std::uint32_t result, std::vector<std::string>& terms) {
  DeterministicRng rng(seed, "perfbench.flagship");
  terms.clear();
  while (terms.size() < 3) {
    std::string t = seeded_term(rng);
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) terms.push_back(t);
  }
  std::vector<std::string> roles;
  roles.insert(roles.end(), result, terms[0] + " " + terms[1] + " " + terms[2]);
  roles.insert(roles.end(), big - result, terms[0]);
  roles.insert(roles.end(), small - result, terms[1]);
  roles.insert(roles.end(), small - result, terms[2]);
  Corpus corpus("flagship");
  for (std::uint32_t i : permutation(roles.size(), rng)) {
    corpus.add(std::to_string(corpus.size()), roles[i]);
  }
  return corpus;
}

// The same documents in a seed-drawn order.
Corpus seeded_order(const Corpus& texts, std::uint64_t seed) {
  DeterministicRng rng(seed, "perfbench.batch_order");
  Corpus corpus(texts.name());
  for (std::uint32_t i : permutation(texts.size(), rng)) {
    corpus.add(texts[i].name, texts[i].text);
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// The serving rig: owner build, store publish, cloud + HTTP frontend.

// Both corpora are fixed: the flagship's term names and document roles, and
// the Enron-synth texts.  Drawing them per run seed made the proofs differ:
// update_stream's verify_p50_ms was 12.8-13.2 ms on every run of one seed
// and 10.2-10.4 ms on every run of another, a spread no bound could absorb.
// The run seed draws the request order, the order the update documents
// arrive in and the signing keys.
constexpr std::uint64_t kCorpusSeed = 1;

// update_stream does a fixed amount of work on every commit: kRounds rounds,
// each adding one document of kBatchWords tokens and then sending
// kRoundQueries queries after the swap, so every commit writes the same
// deltas and compactions.  The added documents are a fixed set of texts
// that arrive in a seed-drawn order, one per round (warm-up included).  The
// first query after a swap (cold overlay entries) is 1/30 of the samples,
// so p90 lies inside the warm queries' distribution, with 48 samples
// beyond it.
constexpr std::uint32_t kBatchWords = 240;   // tokens per added document
constexpr std::size_t kRoundQueries = 30;    // verified queries per round
constexpr std::size_t kRounds = 16;          // per untraced timed phase
constexpr std::uint32_t kCompactEvery = 4;   // rounds between compactions
constexpr std::uint32_t kBatchPool = 1 + kRounds;  // distinct added documents

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir;
  fs::path out;
};

struct LayerTimes {
  double invert_s = 0;
  double build_s = 0;
  double tier_build_s = 0;
  double open_ms = 0;                // replay engine's store open at setup
};

struct Rig {
  Options opt;
  std::unique_ptr<SpeedProbe> probe;
  std::size_t workers = 0;
  VerifiableIndexConfig cfg;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<AccumulatorContext> owner_ctx;
  std::unique_ptr<AccumulatorContext> pub_ctx;
  SigningKey owner_key;
  SigningKey cloud_key;
  std::unique_ptr<IndexBuilder> builder;
  std::unique_ptr<store::EpochStore> store;
  std::unique_ptr<CloudService> cloud;
  std::unique_ptr<HttpFrontend> http;
  std::vector<PoolQuery> queries;
  std::unique_ptr<ResultVerifier> verifier;
  Modexp client_kernel;  // times the client (and owner) thread's host speed
  // Replay engine over the served epoch and its context (traced runs only).
  std::unique_ptr<AccumulatorContext> replay_ctx;
  std::shared_ptr<const SearchEngine> replay;
  LayerTimes layer;
  std::string flagship_text;  // a document holding all three flagship terms
  SynthSpec spec;  // update_stream: base corpus spec
  Corpus batches;  // update_stream: the documents rounds add, in arrival order
  fs::path store_root;

  ~Rig() {
    if (http) http->stop();
  }
};

PoolQuery make_query(DataOwner& owner, std::vector<std::string> keywords,
                     const InvertedIndex& index) {
  PoolQuery pq;
  std::size_t known = 0;
  for (const auto& k : keywords) {
    std::string n = normalize_term(k);
    if (!n.empty() && index.find(n) != nullptr) ++known;
  }
  pq.multi = known >= 2 && known == keywords.size();
  pq.signed_query = owner.issue_query(std::move(keywords));
  pq.body_hex = to_hex(pq.signed_query.encode());
  return pq;
}

void open_replay_engine(Rig& rig, Tracer* tracer, std::uint64_t request) {
  std::int64_t t0 = now_ns();
  store::OpenedEpoch opened = [&] {
    Span s(tracer, "store.open", request);
    return rig.store->open_current();
  }();
  rig.layer.open_ms = ms_between(t0, now_ns());
  // Give the replay engine the fixed-base table for g that the serving
  // engine has (CloudService::publish_from adopts a persisted one,
  // build_state sizes it to the longest posting list), so both prove at
  // the same cost.  Context copies share the table once it exists.
  if (!rig.replay_ctx) rig.replay_ctx = std::make_unique<AccumulatorContext>(*rig.pub_ctx);
  AccumulatorContext& ctx = *rig.replay_ctx;
  const bool has_table = ctx.power().has_fixed_base(ctx.g());
  if (!has_table && opened.fixed_base && opened.fixed_base->base == ctx.g()) {
    ctx.adopt_fixed_base(*opened.fixed_base);
  }
  const IndexSnapshot& snap = *opened.snapshot;
  const std::size_t need =
      (std::max<std::size_t>(1, snap.max_posting_count()) + 1) * snap.config().rep_bits;
  if (!ctx.power().has_fixed_base(ctx.g()) || ctx.power().fixed_base_capacity_bits() < need) {
    ctx.enable_fixed_base(need);
  }
  rig.replay = std::make_shared<const SearchEngine>(opened.snapshot, ctx, rig.cloud_key,
                                                    rig.pool.get());
}

std::unique_ptr<Rig> build_rig(const Options& opt) {
  auto rig = std::make_unique<Rig>();
  rig->opt = opt;
  rig->probe = std::make_unique<SpeedProbe>();
  rig->workers = affinity_cpus();
  rig->pool = std::make_unique<ThreadPool>(rig->workers);
  rig->cfg = VerifiableIndexConfig{};  // 1024-bit modulus, 128-bit reps, interval 100
  const bool flagship = opt.workload == "flagship_regime";
  const bool update = opt.workload == "update_stream";
  if (flagship) rig->cfg.bloom.counters = 20000;

  rig->owner_ctx = std::make_unique<AccumulatorContext>(AccumulatorContext::owner(
      standard_accumulator_modulus(rig->cfg.modulus_bits),
      standard_qr_generator(rig->cfg.modulus_bits)));
  rig->pub_ctx = std::make_unique<AccumulatorContext>(
      AccumulatorContext::public_side(rig->owner_ctx->params()));
  DeterministicRng key_rng(opt.seed, "perfbench.keys");
  rig->owner_key = generate_signing_key(key_rng, rig->cfg.modulus_bits);
  rig->cloud_key = generate_signing_key(key_rng, rig->cfg.modulus_bits);

  // --- corpus -> inverted index -> verifiable index ----------------------
  std::vector<std::string> flagship_terms;
  Corpus corpus;
  if (flagship) {
    corpus = flagship_corpus(kCorpusSeed, 20000, 1500, 31, flagship_terms);
  } else {
    rig->spec = enron_profile(1000, kCorpusSeed);
    corpus = generate_corpus(rig->spec);
    SynthSpec add = rig->spec;
    add.num_docs = kBatchPool;
    add.min_doc_words = add.max_doc_words = kBatchWords;
    add.doc_seed = kCorpusSeed + 1;
    rig->batches = seeded_order(generate_corpus(add), opt.seed);
  }
  std::int64_t t0 = now_ns();
  InvertedIndex inverted = InvertedIndex::build(corpus);
  std::int64_t t1 = now_ns();
  rig->builder = std::make_unique<IndexBuilder>(IndexBuilder::build(
      std::move(inverted), *rig->owner_ctx, rig->owner_key, rig->cfg, *rig->pool));
  std::int64_t t2 = now_ns();
  progress("owner build done");
  rig->layer.invert_s = ms_between(t0, t1) * 1e-3;
  rig->layer.build_s = ms_between(t1, t2) * 1e-3;
  const InvertedIndex& index = rig->builder->index();

  // --- query pool, signed once up front ----------------------------------
  DataOwner owner(*rig->owner_ctx, rig->owner_key, rig->cloud_key.verify_key(), rig->cfg);
  std::vector<std::string> hot_terms;
  if (flagship) {
    // The flagship 3-term query weighs eight times each of its 2-term
    // sub-queries: the median then falls inside the flagship query's own
    // latency class, not on the gap between two classes, and p90 inside
    // the class of the two sub-queries over the big list (2 of 11
    // requests, each ~4x the 3-term query's cost).
    const auto& t = flagship_terms;
    rig->flagship_text = t[0] + " " + t[1] + " " + t[2];
    std::vector<std::vector<std::string>> pool(8, {t[0], t[1], t[2]});
    pool.push_back({t[0], t[1]});
    pool.push_back({t[0], t[2]});
    pool.push_back({t[1], t[2]});
    for (auto kws : pool) {
      bool three = kws.size() == 3;
      PoolQuery pq = make_query(owner, std::move(kws), index);
      pq.require_accumulator_integrity = three;
      pq.expect_docs = 31;
      rig->queries.push_back(std::move(pq));
    }
  } else {
    // Hot terms: four from the paper mix's frequent window (ranks 24..) and
    // four from its medium window (every tenth rank from 200), all tiered.
    // The pool is every frequent x medium pair — large posting lists with
    // small intersections, the shape the witness tier serves — and rounds
    // draw pairs Zipf-weighted.
    std::vector<std::string> frequent, medium;
    auto pick = [&](std::vector<std::string>& into, std::uint32_t rank, std::uint32_t step) {
      for (; into.size() < 4; rank += step) {
        std::string w = synth_word(rig->spec, rank);
        std::string n = normalize_term(w);
        if (n.empty() || index.find(n) == nullptr) continue;
        if (std::find(hot_terms.begin(), hot_terms.end(), w) != hot_terms.end()) continue;
        into.push_back(w);
        hot_terms.push_back(w);
      }
    };
    pick(frequent, 24, 1);
    pick(medium, 200, 10);
    for (const auto& f : frequent) {
      for (const auto& m : medium) rig->queries.push_back(make_query(owner, {f, m}, index));
    }
  }

  // --- witness tier (update_stream) + store publish + serving ------------
  std::optional<store::TierArtifacts> artifacts;
  if (update) {
    TierPolicy policy;
    for (const auto& w : hot_terms) policy.hot_terms.push_back(normalize_term(w));
    std::int64_t tt = now_ns();
    rig->owner_ctx->set_pool(rig->pool.get());
    TierBuildResult tier = build_witness_tier(*rig->builder->snapshot(), *rig->owner_ctx,
                                              policy);
    rig->owner_ctx->set_pool(nullptr);
    rig->layer.tier_build_s = ms_between(tt, now_ns()) * 1e-3;
    if (tier.tier == nullptr) throw std::runtime_error("witness tier came out empty");
    rig->builder->snapshot()->attach_tier(tier.tier);
    artifacts = store::TierArtifacts{tier.tier, std::move(tier.fixed_base)};
  }
  rig->cloud = std::make_unique<CloudService>(rig->builder->snapshot(), *rig->pub_ctx,
                                              rig->cloud_key,
                                              rig->owner_key.verify_key(), rig->pool.get(),
                                              SchemeKind::kHybrid, 1);
  rig->store_root = opt.work_dir / "store";
  rig->store = std::make_unique<store::EpochStore>(rig->store_root);
  rig->store->publish(*rig->builder->snapshot(), 1, artifacts ? &*artifacts : nullptr);
  rig->cloud->wait_published(rig->cloud->publish_from(*rig->store));
  rig->builder->note_full_publish();

  progress("published and serving");
  rig->http = std::make_unique<HttpFrontend>(*rig->cloud, 0, rig->pool.get(), 32);
  rig->http->start();
  rig->verifier = std::make_unique<ResultVerifier>(
      *rig->owner_ctx, rig->owner_key.verify_key(), rig->cloud_key.verify_key(), rig->cfg);
  if (opt.trace) open_replay_engine(*rig, nullptr, 0);
  return rig;
}

// ---------------------------------------------------------------------------
// One request: round trip, binding + result checks, verification, and (in
// the traced run) the in-process replay of the same signed query.

struct Sample {
  double rt_ms = 0;
  double verify_ms = 0;
  double verify_cal_ns = 0;  // the client's modexp time around the verify
  double resp_bytes = 0;
  bool ok = false;
};

std::vector<std::uint64_t> doc_ids(const PostingList& list) {
  std::vector<std::uint64_t> out;
  out.reserve(list.size());
  for (const auto& p : list) out.push_back(p.doc_id);
  return out;
}

// Plain inverted-index answer for a conjunctive query; nullopt when some
// keyword is not indexed (the cloud must answer with a gap proof).
std::optional<std::vector<std::uint64_t>> expected_docs(const InvertedIndex& index,
                                                        const Query& q) {
  std::optional<std::vector<std::uint64_t>> acc;
  for (const auto& raw : q.keywords) {
    std::string n = normalize_term(raw);
    if (n.empty()) continue;
    const PostingList* list = index.find(n);
    if (list == nullptr) return std::nullopt;
    std::vector<std::uint64_t> docs = doc_ids(*list);
    if (!acc) {
      acc = std::move(docs);
    } else {
      std::vector<std::uint64_t> both;
      std::set_intersection(acc->begin(), acc->end(), docs.begin(), docs.end(),
                            std::back_inserter(both));
      acc = std::move(both);
    }
  }
  return acc.value_or(std::vector<std::uint64_t>{});
}

// Returns an empty string when the response is right, else the reason.
std::string check_response(const PoolQuery& pq, const SearchResponse& resp,
                           const InvertedIndex& index) {
  const Query& q = pq.signed_query.query;
  if (resp.query_id != q.id) return "query_id mismatch";
  if (resp.raw_keywords != q.keywords) return "raw_keywords mismatch";
  if (resp.trace_id != q.trace_id) return "trace_id mismatch";
  auto expected = expected_docs(index, q);
  if (!expected) {
    if (!std::holds_alternative<UnknownKeywordResponse>(resp.body)) {
      return "unknown keyword answered without a gap proof";
    }
    return {};
  }
  std::vector<std::uint64_t> got;
  if (const auto* multi = std::get_if<MultiKeywordResponse>(&resp.body)) {
    got = multi->result.docs;
    if (pq.require_accumulator_integrity &&
        !std::holds_alternative<AccumulatorIntegrity>(multi->proof.integrity)) {
      return "expected accumulator integrity";
    }
  } else if (const auto* single = std::get_if<SingleKeywordResponse>(&resp.body)) {
    got = doc_ids(single->postings);
  } else {
    return "unexpected response body";
  }
  if (got != *expected) return "result set differs from the inverted-index intersection";
  if (pq.expect_docs != 0 && got.size() != pq.expect_docs) return "wrong result size";
  return {};
}

// The traced replay: the same signed query through the serving layers in
// process, each call under its own span.  Returns an empty string when every
// replayed byte matches the HTTP response, else the reason.
std::string replay(Rig& rig, const PoolQuery& pq, const std::string& http_hex, Tracer* tr,
                   std::uint64_t request) {
  std::string bad;
  Span root(tr, "replay", request);
  const SignedQuery& sq = pq.signed_query;
  SearchResponse resp = [&] {
    Span s(tr, "protocol.handle", request);
    return rig.cloud->handle(sq);
  }();
  std::string hex;
  {
    Span s(tr, "protocol.response_encode", request);
    ByteWriter w;
    resp.write(w);
    hex = to_hex(w.data());
  }
  if (hex != http_hex) bad = "replayed handle response differs from the HTTP response";
  // The full engine path first: it also brings the replay engine's lazy
  // per-epoch state to where the serving engine already is, so the
  // execute/prove calls below time warm work, as handle did.
  const SearchEngine& engine = *rig.replay;
  SearchResponse again = [&] {
    Span s(tr, "search.search", request);
    return engine.search(sq.query, SchemeKind::kHybrid);
  }();
  ByteWriter again_bytes;
  again.write(again_bytes);
  if (to_hex(again_bytes.data()) != http_hex) {
    bad = "replay engine's response differs from the HTTP response";
  }
  SearchResult result = [&] {
    Span s(tr, "search.execute", request);
    return engine.execute_only(sq.query);
  }();
  if (pq.multi) {
    Span s(tr, "proof.prove", request);
    QueryProof proof = engine.prover().prove(result, SchemeKind::kHybrid);
    (void)proof;
  }
  Bytes payload = resp.payload_bytes();
  Signature sig = [&] {
    Span s(tr, "crypto.sign", request);
    return rig.cloud_key.sign(payload);
  }();
  if (!(sig == resp.cloud_sig)) bad = "re-signed payload differs from the cloud signature";
  return bad;
}

Sample run_request(Rig& rig, std::uint32_t qi, Tracer* tr,
                   std::uint64_t request, Checks& checks) {
  const PoolQuery& pq = rig.queries[qi];
  Sample s;
  Span root(tr, "request", request);
  try {
    std::int64_t t0 = now_ns();
    std::string hex;
    SearchResponse resp;
    {
      Span rt(tr, "protocol.round_trip", request);
      hex = http_request(rig.http->port(), "POST", "/search", pq.body_hex);
      Span dec(tr, "protocol.response_decode", request);
      Bytes raw = from_hex(hex);
      ByteReader r(raw);
      resp = SearchResponse::read(r);
      r.expect_done();
      s.resp_bytes = static_cast<double>(raw.size());
    }
    s.rt_ms = ms_between(t0, now_ns());
    std::string bad = check_response(pq, resp, rig.builder->index());
    // The verify runs on this thread alone, so it is scaled by this
    // thread's own modexp time just before and after it.
    const double cal0 = rig.client_kernel.time_ns(1);
    std::int64_t t1 = now_ns();
    {
      Span v(tr, "proof.verify", request);
      rig.verifier->verify(resp);
    }
    s.verify_ms = ms_between(t1, now_ns());
    s.verify_cal_ns = (cal0 + rig.client_kernel.time_ns(1)) / 2;
    if (tr != nullptr && bad.empty()) bad = replay(rig, pq, hex, tr, request);
    if (!bad.empty()) {
      checks.fail(bad);
      return s;
    }
    s.ok = true;
    checks.pass();
  } catch (const std::exception& e) {
    checks.fail(std::string("request failed: ") + e.what());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Closed-loop phases

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;
  double proc_cpu_s = 0;
  double client_cpu_s = 0;
  double start_ms = 0;     // when the phase began
  double probe_s = 0;      // wall time the speed probe took inside the phase
  double probe_cpu_s = 0;  // CPU time it took
  Counters counters;
  std::vector<double> publish_ms;          // owner publishes
  std::vector<double> publish_cal_ns;      // the owner thread's modexp time around each
  std::vector<double> first_after_swap_ms; // update_stream rounds
  std::vector<double> touched_terms;
  std::vector<double> delta_bytes;
  Counters last_round;
};

// Runs `order` (indices into rig.queries) as one closed-loop client: the
// next request goes out only after the previous response arrived and
// verified.  The speed probe runs before every request and once after the
// last, while the client and the server are idle.
Phase run_queries(Rig& rig, const std::vector<std::uint32_t>& order, Tracer* tr,
                  std::uint64_t request_base, Checks& checks) {
  Phase ph;
  ph.samples.reserve(order.size());
  Counters c0 = Counters::read();
  const double p0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t probe0 = rig.probe->busy_ns;
  const double probe_cpu0 = rig.probe->cpu_s;
  const std::int64_t w0 = now_ns();
  ph.start_ms = static_cast<double>(w0) * 1e-6;
  for (std::size_t k = 0; k < order.size(); ++k) {
    rig.probe->probe();
    ph.samples.push_back(run_request(rig, order[k], tr, request_base + k, checks));
  }
  rig.probe->probe();
  ph.wall_s = ms_between(w0, now_ns()) * 1e-3;
  ph.proc_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - p0;
  ph.client_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
  ph.probe_s = static_cast<double>(rig.probe->busy_ns - probe0) * 1e-9;
  ph.probe_cpu_s = rig.probe->cpu_s - probe_cpu0;
  ph.counters = Counters::read() - c0;
  return ph;
}

// Seeded request order: whole shuffled passes over the pool, so every run
// of a seed sends the same mix in the same order.
std::vector<std::uint32_t> pass_order(std::size_t pool, std::size_t passes,
                                      DeterministicRng& rng) {
  std::vector<std::uint32_t> order;
  for (std::size_t p = 0; p < passes; ++p) {
    auto perm = permutation(pool, rng);
    order.insert(order.end(), perm.begin(), perm.end());
  }
  return order;
}

// --- update_stream rounds ---------------------------------------------------

constexpr std::size_t kMinRequests = 100;   // per untraced timed phase
constexpr std::size_t kFlagshipUpdates = 15;  // flagship_regime's publish samples

struct UpdateState {
  std::uint32_t round = 0;
  std::vector<std::uint32_t> queries;  // planned query order for the phase
  std::size_t next = 0;
};

// Zipf-weighted query plan for `rounds` rounds: pool entry i gets its
// 1/(i+1) share of the rounds * kRoundQueries requests (largest remainder
// rounding).  Fixed quotas keep the mix identical across seeds.  The
// hottest pair is the first query after every swap, so the cold
// first-after-swap class is the same query on every run; the rest of the
// order is drawn by the seed.
void plan_queries(UpdateState& st, std::size_t pool, std::size_t rounds, DeterministicRng rng) {
  const std::size_t n = rounds * kRoundQueries;
  std::vector<double> exact(pool);
  double total = 0;
  for (std::size_t i = 0; i < pool; ++i) total += 1.0 / static_cast<double>(i + 1);
  std::vector<std::size_t> count(pool);
  std::vector<std::size_t> by_remainder(pool);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < pool; ++i) {
    exact[i] = static_cast<double>(n) / (static_cast<double>(i + 1) * total);
    count[i] = static_cast<std::size_t>(exact[i]);
    assigned += count[i];
    by_remainder[i] = i;
  }
  std::stable_sort(by_remainder.begin(), by_remainder.end(), [&](std::size_t a, std::size_t b) {
    return exact[a] - static_cast<double>(count[a]) > exact[b] - static_cast<double>(count[b]);
  });
  for (std::size_t k = 0; assigned + k < n; ++k) ++count[by_remainder[k % pool]];
  if (count[0] < rounds) throw std::logic_error("hottest pair's quota is below one per round");
  count[0] -= rounds;
  std::vector<std::uint32_t> rest;
  for (std::size_t i = 0; i < pool; ++i) {
    rest.insert(rest.end(), count[i], static_cast<std::uint32_t>(i));
  }
  shuffle(rest, rng);
  st.queries.clear();
  for (std::size_t r = 0; r < rounds; ++r) {
    st.queries.push_back(0);
    st.queries.insert(st.queries.end(), rest.begin() + r * (kRoundQueries - 1),
                      rest.begin() + (r + 1) * (kRoundQueries - 1));
  }
  st.next = 0;
}

// One update round: add a seeded batch, ship it as a delta, serve it, then
// kRoundQueries Zipf-hot queries pinned to the new epoch.
// The owner's update path for one added document: add_documents ->
// publish_delta -> EpochStore::publish_delta, after a speed probe, then
// with `serve` publish_from + wait_published.  Records the owner's publish
// time, from the add_documents call until the delta is durable in the
// store, with the owner thread's modexp time around it (the owner's work
// runs on this thread alone); returns the new epoch.
std::uint64_t publish_update(Rig& rig, const Document& added, bool serve, Tracer* tr,
                             std::uint64_t rid, Phase& ph) {
  const std::vector<Document> docs{
      Document{rig.builder->index().doc_count(), added.name, added.text}};
  rig.probe->probe();
  const double cal0 = rig.client_kernel.time_ns(1);
  const std::int64_t t0 = now_ns();
  UpdateTimings timings = [&] {
    Span s(tr, "vindex.add_documents", rid);
    return rig.builder->add_documents(docs, *rig.owner_ctx, rig.owner_key);
  }();
  std::optional<IndexDelta> delta = [&] {
    Span s(tr, "vindex.publish_delta", rid);
    return rig.builder->publish_delta();
  }();
  if (!delta) throw std::runtime_error("update produced no delta");
  fs::path dir = [&] {
    Span s(tr, "store.publish_delta", rid);
    return rig.store->publish_delta(*delta, 1);
  }();
  ph.publish_ms.push_back(ms_between(t0, now_ns()));
  ph.publish_cal_ns.push_back((cal0 + rig.client_kernel.time_ns(1)) / 2);
  if (!serve) return delta->epoch;
  std::uint64_t epoch = 0;
  {
    Span s(tr, "protocol.swap", rid);
    epoch = rig.cloud->publish_from(*rig.store);
    rig.cloud->wait_published(epoch);
  }
  ph.touched_terms.push_back(static_cast<double>(timings.touched_terms));
  ph.delta_bytes.push_back(
      static_cast<double>(fs::file_size(dir / store::EpochStore::kDeltaFile)));
  if (epoch != delta->epoch) throw std::runtime_error("served epoch is not the new delta");
  return epoch;
}

void update_round(Rig& rig, UpdateState& st, Tracer* tr, std::uint64_t request_base,
                  Phase& ph, Checks& checks) {
  const std::uint32_t round = ++st.round;
  const std::uint64_t rid = request_base;
  std::uint64_t epoch = 0;
  try {
    Span r(tr, "round", rid);
    epoch = publish_update(rig, rig.batches[(round - 1) % rig.batches.size()], true, tr, rid,
                           ph);
    if (tr != nullptr) open_replay_engine(rig, tr, rid);
  } catch (const std::exception& e) {
    checks.fail(std::string("update round failed: ") + e.what());
    return;
  }
  rig.verifier->pin_epoch(epoch);

  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < kRoundQueries && st.next < st.queries.size(); ++i) {
    order.push_back(st.queries[st.next++]);
  }
  Counters c0 = Counters::read();
  Phase q = run_queries(rig, order, tr, rid + 1, checks);
  ph.last_round = Counters::read() - c0;
  if (!q.samples.empty()) ph.first_after_swap_ms.push_back(q.samples.front().rt_ms);
  ph.samples.insert(ph.samples.end(), q.samples.begin(), q.samples.end());

  if (round % kCompactEvery == 0) {
    Span s(tr, "store.compact", rid);
    try {
      rig.store->compact(1);
    } catch (const std::exception& e) {
      checks.fail(std::string("compaction failed: ") + e.what());
    }
  }
}

// Runs `rounds` update rounds as one phase (the writer is the only client).
Phase run_rounds(Rig& rig, UpdateState& st, std::size_t rounds, Tracer* tr,
                 std::uint64_t request_base, Checks& checks) {
  Phase ph;
  Counters c0 = Counters::read();
  double p0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t probe0 = rig.probe->busy_ns;
  const double probe_cpu0 = rig.probe->cpu_s;
  std::int64_t w0 = now_ns();
  ph.start_ms = static_cast<double>(w0) * 1e-6;
  for (std::size_t r = 0; r < rounds; ++r) {
    update_round(rig, st, tr, request_base + r * (kRoundQueries + 1), ph, checks);
  }
  // Wall and CPU cover the whole phase, owner writes included.
  ph.wall_s = ms_between(w0, now_ns()) * 1e-3;
  ph.proc_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - p0;
  ph.client_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
  ph.probe_s = static_cast<double>(rig.probe->busy_ns - probe0) * 1e-9;
  ph.probe_cpu_s = rig.probe->cpu_s - probe_cpu0;
  ph.counters = Counters::read() - c0;
  return ph;
}

// flagship_regime's publish metric: after every query phase, one more
// document holding all three query terms (a new match for the flagship
// query) goes through the owner's update path, kFlagshipUpdates times.  The
// served epoch stays the one the queries ran against.
Phase run_flagship_updates(Rig& rig, Tracer* tr, Checks& checks) {
  Phase ph;
  ph.start_ms = static_cast<double>(now_ns()) * 1e-6;
  const Document added{0, "flagship-match", rig.flagship_text};
  for (std::size_t i = 0; i < kFlagshipUpdates; ++i) {
    try {
      publish_update(rig, added, false, tr, 3'000'000 + i, ph);
    } catch (const std::exception& e) {
      checks.fail(std::string("flagship update failed: ") + e.what());
    }
  }
  rig.probe->probe();
  return ph;
}

// ---------------------------------------------------------------------------
// Output

void write_phase(Json& j, const char* name, const Phase& ph) {
  j.key(name);
  j.begin_obj();
  std::vector<double> rt, verify, verify_cal, bytes;
  std::uint64_t ok = 0;
  for (const auto& s : ph.samples) {
    if (!s.ok) continue;
    ++ok;
    rt.push_back(s.rt_ms);
    verify.push_back(s.verify_ms);
    verify_cal.push_back(s.verify_cal_ns);
    bytes.push_back(s.resp_bytes);
  }
  j.field("requests", static_cast<std::uint64_t>(ph.samples.size()));
  j.field("verified", ok);
  j.field("start_ms", ph.start_ms);
  j.field("wall_s", ph.wall_s);
  j.field("proc_cpu_s", ph.proc_cpu_s);
  j.field("client_cpu_s", ph.client_cpu_s);
  j.field("probe_s", ph.probe_s);
  j.field("probe_cpu_s", ph.probe_cpu_s);
  j.array("rt_ms", rt);
  j.array("verify_ms", verify);
  j.array("verify_cal_ns", verify_cal);
  j.array("resp_bytes", bytes);
  j.array("publish_ms", ph.publish_ms);
  j.array("publish_cal_ns", ph.publish_cal_ns);
  j.array("first_after_swap_ms", ph.first_after_swap_ms);
  j.array("touched_terms", ph.touched_terms);
  j.array("delta_bytes", ph.delta_bytes);
  j.key("counters");
  ph.counters.write(j);
  j.key("last_round");
  ph.last_round.write(j);
  j.end_obj();
}

std::uint64_t tree_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--work-dir") o.work_dir = v;
    else if (k == "--out") o.out = v;
    else throw UsageError("unknown flag " + k);
  }
  if (o.workload != "flagship_regime" && o.workload != "update_stream") {
    throw UsageError("--workload must be flagship_regime or update_stream");
  }
  if (o.work_dir.empty() || o.out.empty()) throw UsageError("--work-dir and --out are required");
  if (!(o.seconds > 0)) throw UsageError("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  // The stores must start empty: a republished epoch number is trusted.
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  Checks checks;
  const bool update = opt.workload == "update_stream";

  // --- set-up: build, publish, serve, warm --------------------------------
  const std::int64_t s0 = now_ns();
  std::unique_ptr<Rig> rig = build_rig(opt);
  // Warm-up: every pooled query once (server prime caches, lazy
  // materialization, the verifier's prime cache), then one more pass that
  // sizes the flagship's timed phase (one round on update_stream).
  Checks warm_checks;
  DeterministicRng warm_rng(opt.seed, "perfbench.warm");
  const std::vector<std::uint32_t> warm = pass_order(rig->queries.size(), 1, warm_rng);
  Phase cold = run_queries(*rig, warm, nullptr, 0, warm_checks);
  progress(("cold pass done: " + std::to_string(static_cast<std::uint64_t>(
                                     cold.counters.prime_miss)) +
            " prime misses, " +
            std::to_string(static_cast<std::uint64_t>(cold.counters.tier_hit)) +
            " witness-tier hits, " +
            std::to_string(static_cast<std::uint64_t>(cold.counters.tier_miss)) + " misses")
               .c_str());
  const double first_query_ms = cold.samples.empty() ? 0 : cold.samples.front().rt_ms;
  if (opt.trace) {
    // The replay engine has its own lazy state; warm it too.
    Tracer scratch;
    run_queries(*rig, warm, &scratch, 0, warm_checks);
  }
  double pass_s = 0;  // one warm pass over the pool (flagship_regime)
  UpdateState ust;
  if (!update) {
    pass_s = run_queries(*rig, pass_order(rig->queries.size(), 1, warm_rng), nullptr, 0,
                         warm_checks)
                 .wall_s;
  } else {
    plan_queries(ust, rig->queries.size(), 1, DeterministicRng(opt.seed, "perfbench.update.warm"));
    run_rounds(*rig, ust, 1, nullptr, 0, warm_checks);
  }
  const double setup_s = ms_between(s0, now_ns()) * 1e-3;
  progress("set-up done");
  checks.merge(warm_checks, "warm-up: ");

  // --- timed phase(s) ------------------------------------------------------
  DeterministicRng order_rng(opt.seed, "perfbench.order");
  std::size_t passes = 0;
  std::size_t rounds = 0;
  std::vector<std::uint32_t> order;
  // flagship_regime runs whole shuffled passes over the pool, sized from
  // the warm-up to last about --seconds but never fewer than kMinRequests
  // verified requests, so query p90 has at least ten samples beyond it.
  // update_stream runs kRounds rounds whatever the speed.  The traced run
  // makes two phases (untraced, then traced) of about a quarter of that
  // work each, so that with the replay it takes no longer than an untraced
  // run; on update_stream each covers a compaction.
  if (update) {
    rounds = opt.trace ? kCompactEvery : kRounds;
  } else {
    passes = static_cast<std::size_t>(opt.seconds / std::max(pass_s, 1e-6) + 0.5);
    const std::size_t pool = rig->queries.size();
    passes = std::max(passes, (kMinRequests + pool - 1) / pool);
    if (opt.trace) passes = (passes + 3) / 4;
    order = pass_order(pool, passes, order_rng);
  }

  Phase timed;
  const DeterministicRng plan_rng(opt.seed, "perfbench.update.queries");
  if (update) {
    plan_queries(ust, rig->queries.size(), rounds, plan_rng);
    timed = run_rounds(*rig, ust, rounds, nullptr, 1'000'000, checks);
  } else {
    timed = run_queries(*rig, order, nullptr, 1'000'000, checks);
  }

  progress("timed phase done");
  std::optional<Phase> traced;
  Tracer tracer;
  if (opt.trace) {
    if (update) {
      plan_queries(ust, rig->queries.size(), rounds, plan_rng);
      traced = run_rounds(*rig, ust, rounds, &tracer, 2'000'000, checks);
    } else {
      traced = run_queries(*rig, order, &tracer, 2'000'000, checks);
    }
  }

  std::optional<Phase> updates;
  if (!update) {
    updates = run_flagship_updates(*rig, opt.trace ? &tracer : nullptr, checks);
    progress("updates done");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::uint64_t store_bytes = tree_bytes(rig->store_root);

  Json j;
  j.begin_obj();
  j.field("workload", opt.workload);
  j.field("seed", opt.seed);
  j.field("nproc", static_cast<std::uint64_t>(affinity_cpus()));
  j.field("pool_workers", static_cast<std::uint64_t>(rig->workers));
  j.field("build_type", std::string(VC_BENCH_BUILD_TYPE));
  j.field("pool_queries", static_cast<std::uint64_t>(rig->queries.size()));
  j.field("passes", static_cast<std::uint64_t>(passes));
  j.field("rounds", static_cast<std::uint64_t>(rounds));
  j.field("setup_s", setup_s);
  j.field("attempted", checks.attempted());
  j.field("failed", checks.failed());
  j.key("errors");
  j.begin_arr();
  for (const auto& e : checks.errors()) j.str(e);
  j.end_arr();
  j.field("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.field("store_bytes", store_bytes);
  j.field("first_query_ms", first_query_ms);
  j.key("layer");
  j.begin_obj();
  j.field("invert_s", rig->layer.invert_s);
  j.field("build_s", rig->layer.build_s);
  j.field("tier_build_s", rig->layer.tier_build_s);
  j.field("open_ms", rig->layer.open_ms);
  j.end_obj();
  j.key("probes");
  j.begin_obj();
  std::vector<double> probe_t;
  for (const auto& r : rig->probe->readings) probe_t.push_back(r.t_ms);
  j.array("t_ms", probe_t);
  j.key("wall_ns");
  j.begin_arr();
  for (const auto& r : rig->probe->readings) {
    j.begin_arr();
    for (double x : r.wall) j.num(x);
    j.end_arr();
  }
  j.end_arr();
  j.end_obj();
  write_phase(j, "timed", timed);
  if (updates) write_phase(j, "updates", *updates);
  if (traced) {
    write_phase(j, "traced", *traced);
    j.key("spans");
    j.begin_arr();
    for (const auto& s : tracer.spans) {
      j.begin_arr();
      j.str(s.name);
      j.num(s.start_ns);
      j.num(s.end_ns);
      j.num(s.id);
      j.num(s.parent);
      j.num(s.request);
      j.end_arr();
    }
    j.end_arr();
  }
  j.end_obj();
  std::ofstream out(opt.out);
  out << j.text() << "\n";
  if (!out) throw std::runtime_error("cannot write " + opt.out.string());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcbench: %s\n", e.what());
    return 1;
  }
}
