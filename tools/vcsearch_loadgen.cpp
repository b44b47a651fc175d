// vcsearch-loadgen — open-loop load harness with SLO gating.
//
// Drives a vcsearch-serve HTTP frontend with the paper's 24-query mix plus
// the eight-query boolean/top-k mix (OR, NOT, nesting, ranking cutoffs) at a
// fixed offered rate (Poisson arrivals), measures client-side latency from
// each request's *scheduled* arrival time (so a stalled server inflates the
// tail instead of silently slowing the generator — no coordinated
// omission), scrapes the server's /stats histograms alongside, and writes
// a machine-readable results/BENCH_serve_slo.json.  Optional SLO
// thresholds turn the run into a gate: exit 3 when violated.
//
//   vcsearch-loadgen --spawn [--synth N] [--seed S] [--scheme S]
//   vcsearch-loadgen --port P --dir DIR [--synth N] [--seed S]
//     --spawn           build a synthetic index and serve it in-process
//                       (one-command smoke for CI; port 0 auto-picks)
//     --port P --dir D  drive an already-running vcsearch-serve; DIR holds
//                       owner.key/cloud.key/params.txt and --synth/--seed
//                       must match the build so workload keywords exist
//     --qps Q           offered load in queries/second (default 20)
//     --duration-s D    run length (default 10)
//     --connections C   client sender threads (default 4)
//     --trace-every K   mint an X-VC-Trace header on every Kth request
//                       (default 8; 0 disables) so slow requests can be
//                       pulled from GET /traces/<id> afterwards
//     --slo-p50-ms X    SLO gates on client-side latency percentiles and
//     --slo-p99-ms X    error rate (errors exclude 503 shed, which gets
//     --slo-error-rate F  its own count); any violation -> exit 3
//     --out FILE        result path (default results/BENCH_serve_slo.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "crypto/standard_params.hpp"
#include "data/testbed.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "support/errors.hpp"

using namespace vc;

namespace {

double arg_double(int argc, char** argv, const char* name, double fallback) {
  const char* v = arg_value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::strtod(v, nullptr);
}

// One completed request, timed against its scheduled open-loop arrival.
struct Sample {
  double latency_ms = 0;   // completion - scheduled arrival
  std::uint64_t trace_id = 0;
  bool ok = false;
  bool shed = false;       // 503 from the in-flight cap
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool spawn = has_flag(argc, argv, "--spawn");
  const SchemeKind scheme = scheme_arg(argc, argv);
  const char* dir = arg_value(argc, argv, "--dir", nullptr);
  std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(arg_value(argc, argv, "--port", "0"), nullptr, 10));
  if (!spawn && (dir == nullptr || port == 0)) {
    std::fprintf(stderr,
                 "usage: vcsearch-loadgen --spawn [--synth N] [--seed S]\n"
                 "       vcsearch-loadgen --port P --dir DIR [--synth N] [--seed S]\n"
                 "  common: [--qps Q] [--duration-s D] [--connections C]\n"
                 "          [--trace-every K] [--slo-p50-ms X] [--slo-p99-ms X]\n"
                 "          [--slo-error-rate F] [--out FILE]\n");
    return 2;
  }

  std::uint32_t synth = static_cast<std::uint32_t>(
      std::strtoul(arg_value(argc, argv, "--synth", "120"), nullptr, 10));
  std::uint64_t seed = std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
  double qps = arg_double(argc, argv, "--qps", 20.0);
  double duration_s = arg_double(argc, argv, "--duration-s", 10.0);
  std::size_t connections =
      std::strtoul(arg_value(argc, argv, "--connections", "4"), nullptr, 10);
  if (connections == 0) connections = 1;
  std::size_t trace_every =
      std::strtoul(arg_value(argc, argv, "--trace-every", "8"), nullptr, 10);
  if (qps <= 0 || duration_s <= 0) {
    std::fprintf(stderr, "--qps and --duration-s must be positive\n");
    return 2;
  }

  // --- assemble the signed query pool (the paper's 24-query mix) ----------
  // The pool is signed once up front: open-loop arrivals must not pay the
  // owner's signing cost on the critical path, and the server verifies
  // signatures statelessly so replaying a signed query is a valid load unit.
  std::optional<Testbed> bed;
  std::optional<CloudService> cloud;
  std::optional<HttpFrontend> frontend;
  std::vector<SignedQuery> pool;
  std::vector<std::size_t> pool_terms;

  SynthSpec spec = enron_profile(synth, seed);
  std::vector<WorkloadQuery> workload = paper_query_workload(spec);

  if (spawn) {
    TestbedOptions opts;
    opts.corpus = spec;
    bed.emplace(std::move(opts));
    cloud.emplace(bed->vindex().snapshot(), bed->public_ctx(), bed->cloud_key(),
                  bed->owner_key().verify_key(), &bed->pool(), scheme);
    frontend.emplace(*cloud, port, &bed->pool());
    frontend->start();
    port = frontend->port();
    DataOwner owner(bed->owner_ctx(), bed->owner_key(),
                    bed->cloud_key().verify_key(), bed->vindex().config());
    for (const auto& wq : workload) {
      pool.push_back(owner.issue_query(wq.query.keywords));
      pool_terms.push_back(wq.keyword_count);
    }
    for (const auto& bq : boolean_query_workload(spec)) {
      pool.push_back(owner.issue_expression_query(bq.text, bq.top_k));
      pool_terms.push_back(0);
    }
    std::printf("spawned in-process server on port %u (%u docs, %s scheme)\n", port,
                synth, scheme_name(scheme));
  } else {
    std::filesystem::path base(dir);
    SigningKey owner_key = SigningKey::load((base / "owner.key").string());
    SigningKey cloud_key = SigningKey::load((base / "cloud.key").string());
    VerifiableIndexConfig config;
    std::ifstream params(base / "params.txt");
    for (std::string line; std::getline(params, line);) {
      auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      std::string key = line.substr(0, eq);
      unsigned long value = std::strtoul(line.c_str() + eq + 1, nullptr, 10);
      if (key == "modulus_bits") config.modulus_bits = value;
      if (key == "rep_bits") config.rep_bits = value;
      if (key == "interval_size") config.interval_size = value;
      if (key == "bloom_m") config.bloom.counters = static_cast<std::uint32_t>(value);
    }
    auto owner_ctx = AccumulatorContext::owner(
        standard_accumulator_modulus(config.modulus_bits),
        standard_qr_generator(config.modulus_bits));
    DataOwner owner(owner_ctx, owner_key, cloud_key.verify_key(), config);
    for (const auto& wq : workload) {
      pool.push_back(owner.issue_query(wq.query.keywords));
      pool_terms.push_back(wq.keyword_count);
    }
    for (const auto& bq : boolean_query_workload(spec)) {
      pool.push_back(owner.issue_expression_query(bq.text, bq.top_k));
      pool_terms.push_back(0);
    }
  }

  // --- open-loop schedule --------------------------------------------------
  // Arrival k fires at start + sum of exponential gaps (rate = qps).  The
  // whole schedule is drawn up front so senders never synchronize on the
  // RNG, and the run is reproducible for a given --seed.
  std::mt19937_64 rng(seed ^ 0x5106dULL);
  std::exponential_distribution<double> gap(qps);
  std::vector<double> arrival_s;
  for (double t = gap(rng); t < duration_s; t += gap(rng)) arrival_s.push_back(t);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::vector<std::size_t> query_of(arrival_s.size());
  for (auto& q : query_of) q = pick(rng);

  std::printf("offered load: %.1f qps for %.1fs -> %zu scheduled arrivals, "
              "%zu connections, pool of %zu signed queries\n",
              qps, duration_s, arrival_s.size(), connections, pool.size());

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  std::atomic<std::size_t> next{0};
  std::vector<Sample> samples(arrival_s.size());

  auto sender = [&] {
    for (;;) {
      std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= arrival_s.size()) return;
      auto scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(arrival_s[k]));
      std::this_thread::sleep_until(scheduled);
      Sample& s = samples[k];
      if (trace_every != 0 && k % trace_every == 0) s.trace_id = obs::mint_trace_id();
      try {
        SearchResponse resp = http_search(port, pool[query_of[k]], s.trace_id);
        (void)resp;
        s.ok = true;
      } catch (const Error& e) {
        s.shed = std::strstr(e.what(), "saturated") != nullptr;
      }
      s.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled).count();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t i = 0; i < connections; ++i) threads.emplace_back(sender);
  for (auto& t : threads) t.join();
  double wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  // --- aggregate -----------------------------------------------------------
  std::vector<double> ok_ms;
  std::size_t ok = 0, shed = 0, errors = 0;
  std::uint64_t slowest_trace = 0;
  double slowest_ms = -1;
  for (const Sample& s : samples) {
    if (s.ok) {
      ++ok;
      ok_ms.push_back(s.latency_ms);
      if (s.trace_id != 0 && s.latency_ms > slowest_ms) {
        slowest_ms = s.latency_ms;
        slowest_trace = s.trace_id;
      }
    } else if (s.shed) {
      ++shed;
    } else {
      ++errors;
    }
  }
  std::sort(ok_ms.begin(), ok_ms.end());
  double p50 = percentile(ok_ms, 0.50), p90 = percentile(ok_ms, 0.90);
  double p99 = percentile(ok_ms, 0.99), p999 = percentile(ok_ms, 0.999);
  double err_rate = samples.empty() ? 0
                                    : static_cast<double>(errors) /
                                          static_cast<double>(samples.size());
  double achieved_qps = wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;

  std::printf("done: %zu ok, %zu shed (503), %zu errors in %.2fs "
              "(achieved %.1f qps)\n",
              ok, shed, errors, wall_s, achieved_qps);
  std::printf("client latency ms (from scheduled arrival): p50 %.2f  p90 %.2f  "
              "p99 %.2f  p99.9 %.2f  max %.2f\n",
              p50, p90, p99, p999, ok_ms.empty() ? 0 : ok_ms.back());

  // --- server-side scrape --------------------------------------------------
  // /stats carries the same vc_stage_seconds percentiles the run just
  // exercised; embedding it verbatim makes the JSON a one-file forensic
  // bundle (client view + server view + a slow trace to pull).
  std::string server_stats = "{}";
  std::string traces_list = "[]";
  try {
    server_stats = http_request(port, "GET", "/stats", "");
    traces_list = http_request(port, "GET", "/traces", "");
  } catch (const Error& e) {
    std::fprintf(stderr, "warning: /stats scrape failed: %s\n", e.what());
  }
  std::string slowest_trace_json;
  if (slowest_trace != 0) {
    try {
      slowest_trace_json = http_request(
          port, "GET", "/traces/" + obs::trace_id_hex(slowest_trace), "");
    } catch (const Error&) {
      // Sampled out server-side; the id alone still identifies the request.
    }
  }

  if (frontend) frontend->stop();

  // --- SLO gate ------------------------------------------------------------
  double slo_p50 = arg_double(argc, argv, "--slo-p50-ms", 0);
  double slo_p99 = arg_double(argc, argv, "--slo-p99-ms", 0);
  double slo_err = arg_double(argc, argv, "--slo-error-rate", -1);
  std::vector<std::string> violations;
  if (slo_p50 > 0 && p50 > slo_p50) {
    violations.push_back("p50 " + fmt(p50) + "ms > SLO " + fmt(slo_p50) + "ms");
  }
  if (slo_p99 > 0 && p99 > slo_p99) {
    violations.push_back("p99 " + fmt(p99) + "ms > SLO " + fmt(slo_p99) + "ms");
  }
  if (slo_err >= 0 && err_rate > slo_err) {
    violations.push_back("error rate " + fmt(err_rate) + " > SLO " + fmt(slo_err));
  }
  if (ok == 0) violations.push_back("no request succeeded");

  // --- result file ---------------------------------------------------------
  const char* out_path =
      arg_value(argc, argv, "--out", "results/BENCH_serve_slo.json");
  std::filesystem::path out_file(out_path);
  if (out_file.has_parent_path()) std::filesystem::create_directories(out_file.parent_path());
  std::ofstream out(out_file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  out << "{\n  \"bench\": \"serve_slo\",\n  \"config\": {"
      << "\"qps\": " << qps << ", \"duration_s\": " << duration_s
      << ", \"connections\": " << connections << ", \"synth_docs\": " << synth
      << ", \"seed\": " << seed << ", \"spawn\": " << (spawn ? "true" : "false")
      << "},\n  \"requests\": {\"scheduled\": " << samples.size()
      << ", \"ok\": " << ok << ", \"shed\": " << shed << ", \"errors\": " << errors
      << ", \"achieved_qps\": " << fmt(achieved_qps) << "},\n"
      << "  \"client_ms\": {\"p50\": " << fmt(p50) << ", \"p90\": " << fmt(p90)
      << ", \"p99\": " << fmt(p99) << ", \"p999\": " << fmt(p999)
      << ", \"max\": " << fmt(ok_ms.empty() ? 0 : ok_ms.back()) << "},\n"
      << "  \"slo\": {\"p50_ms\": " << fmt(slo_p50) << ", \"p99_ms\": " << fmt(slo_p99)
      << ", \"error_rate\": " << fmt(slo_err < 0 ? -1 : slo_err)
      << ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out << (i ? ", " : "") << "\"" << obs::json_escape(violations[i]) << "\"";
  }
  out << "]},\n  \"server_stats\": " << server_stats
      << ",\n  \"server_traces\": " << traces_list;
  if (!slowest_trace_json.empty()) {
    out << ",\n  \"slowest_traced\": " << slowest_trace_json;
  }
  out << "\n}\n";
  out.close();
  std::printf("wrote %s\n", out_path);

  if (!violations.empty()) {
    for (const auto& v : violations) {
      std::fprintf(stderr, "SLO VIOLATION: %s\n", v.c_str());
    }
    return 3;
  }
  return 0;
}
