// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every figure/table binary prints a self-describing table of the same
// series the paper reports.  Scale knobs default to sizes that finish in
// minutes on one core and can be raised via environment variables to
// approach the paper's full scale:
//   VC_DOCS="100,200,400,800"   corpus sizes (documents) for the sweeps
//   VC_MODULUS_BITS=1024        accumulator modulus
//   VC_REP_BITS=128             prime representative width
//   VC_BLOOM_M=4096             counting Bloom filter counters
//   VC_RUNS=3                   measurement repetitions (averaged)
// Machine-readable results: a TablePrinter constructed with a bench name
// writes BENCH_<name>.json on destruction — the printed table plus the
// VC_* knobs in effect and a snapshot of the telemetry registry (the same
// vc_stage_seconds vocabulary vcsearch-serve exports at /metrics), so a
// bench run and a production scrape are directly comparable.  Set
// VC_BENCH_JSON_DIR to redirect the files (default: working directory),
// VC_BENCH_JSON=0 to suppress them.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "data/testbed.hpp"
#include "obs/export.hpp"
#include "support/stopwatch.hpp"

namespace vc::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::vector<std::uint32_t> env_sizes(const char* name,
                                            std::vector<std::uint32_t> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::vector<std::uint32_t> out;
  std::string s(v);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(static_cast<std::uint32_t>(std::strtoul(s.substr(pos, comma - pos).c_str(),
                                                          nullptr, 10)));
    pos = comma + 1;
  }
  return out;
}

inline VerifiableIndexConfig bench_index_config() {
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = env_size("VC_MODULUS_BITS", 1024);
  cfg.rep_bits = env_size("VC_REP_BITS", 128);
  // Interval witnesses pay off when |set| >> interval_size * |result|; the
  // paper picks 100 for 2.5 GB-scale posting lists (tens of thousands of
  // entries).  The default sweeps here run MB-scale corpora with
  // hundreds-of-entries posting lists, so the faithful scaled choice is a
  // proportionally smaller interval (see bench_ablation_interval for the
  // tradeoff); export VC_INTERVAL_SIZE=100 with paper-scale VC_DOCS to
  // match the paper's configuration exactly.
  cfg.interval_size = env_size("VC_INTERVAL_SIZE", 10);
  cfg.bloom.counters = static_cast<std::uint32_t>(env_size("VC_BLOOM_M", 4096));
  return cfg;
}

inline TestbedOptions bench_testbed_options(std::uint32_t docs, bool enron = true) {
  TestbedOptions opts;
  opts.corpus = enron ? enron_profile(docs) : newsgroup_profile(docs);
  opts.index = bench_index_config();
  opts.pool_workers = 0;
  return opts;
}

// The "data size" label for a corpus (the paper's x-axis is MB).
inline double corpus_mb(const Corpus& corpus) {
  return static_cast<double>(corpus.total_bytes()) / (1024.0 * 1024.0);
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

// Middle sample (upper middle for an even count).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

// Environment knobs recorded into every BENCH_*.json so a result file is
// self-describing (which scale the numbers were measured at).
inline const char* const kBenchParamEnv[] = {
    "VC_DOCS",   "VC_MODULUS_BITS", "VC_REP_BITS", "VC_BLOOM_M",
    "VC_RUNS",   "VC_INTERVAL_SIZE", "VC_BATCH_N",
    "VC_TIER_N", "VC_TIER_TERMS",   "VC_TIER_REQUIRE_SPEEDUP",
    "VC_DELTA_INITIAL", "VC_DELTA_ADDED", "VC_DELTA_REQUIRE_FLAT",
    "VC_DELTA_REQUIRE_SPEEDUP",
};

struct TablePrinter {
  explicit TablePrinter(std::vector<std::string> headers)
      : TablePrinter(std::string(), std::move(headers)) {}

  // Named variant: on destruction writes BENCH_<name>.json (table rows +
  // VC_* params + telemetry registry snapshot) unless VC_BENCH_JSON=0.
  TablePrinter(std::string name, std::vector<std::string> headers)
      : name_(std::move(name)), headers_(std::move(headers)) {
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s%-*s", i ? "  " : "", width(i), headers_[i].c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s%s", i ? "  " : "", std::string(width(i), '-').c_str());
    }
    std::printf("\n");
  }

  ~TablePrinter() {
    if (!name_.empty()) write_json();
  }

  TablePrinter(const TablePrinter&) = delete;
  TablePrinter& operator=(const TablePrinter&) = delete;

  void row(const std::vector<std::string>& cells) const {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s%-*s", i ? "  " : "", width(i), cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
    rows_.push_back(cells);
  }
  [[nodiscard]] int width(std::size_t i) const {
    return std::max<int>(12, static_cast<int>(headers_[i].size()));
  }

  std::string name_;
  std::vector<std::string> headers_;
  mutable std::vector<std::vector<std::string>> rows_;

 private:
  void write_json() const {
    const char* gate = std::getenv("VC_BENCH_JSON");
    if (gate != nullptr && std::string(gate) == "0") return;
    const char* dir = std::getenv("VC_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
    path += "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"bench\": \"" << obs::json_escape(name_) << "\",\n  \"params\": {";
    bool first = true;
    for (const char* key : kBenchParamEnv) {
      const char* v = std::getenv(key);
      if (v == nullptr) continue;
      out << (first ? "" : ", ") << "\"" << key << "\": \"" << obs::json_escape(v)
          << "\"";
      first = false;
    }
    out << "},\n  \"headers\": [";
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << obs::json_escape(headers_[i]) << "\"";
    }
    out << "],\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r ? ",\n    " : "\n    ") << "[";
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        out << (c ? ", " : "") << "\"" << obs::json_escape(rows_[r][c]) << "\"";
      }
      out << "]";
    }
    out << "\n  ],\n  \"metrics\": " << obs::render_json(obs::MetricsRegistry::global())
        << "\n}\n";
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
};

inline std::string fmt(double v, const char* f = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

}  // namespace vc::bench
