// Proof-pipeline telemetry (the observability layer the paper's figures
// imply but the prototype never had).
//
// A process-wide MetricsRegistry owns named counters, gauges, duration
// accumulators and fixed-bucket latency histograms.  Registration (first
// lookup of a name+labels pair) takes a mutex; every hot-path update is a
// single relaxed atomic, so the proof managers can bump the same metric
// from every pool worker without serializing.  Metric objects are never
// destroyed once registered — call sites cache a reference in a function-
// local static and pay one guard load per update thereafter.
//
// The RAII Span records wall time into a histogram and nests: each thread
// keeps a chain of active spans, a closing child adds its elapsed time to
// the parent's child-time, and self_seconds() exposes the exclusive time —
// one query therefore yields the per-stage breakdown of §III-C's pipeline
// (prime lookup, interval walk, witness generation, aggregation, Bloom
// path, serialization, verification).  Telemetry has no off switch: its
// cost measures within noise (docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace vc::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Instantaneous signed level (queue depth, workers busy, ...).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Signed running sum of durations, kept in integer nanoseconds so the add
// is one atomic (no CAS loop).  Negative totals are legal — the hybrid
// policy's estimated-minus-actual delta uses one.
class TimeCounter {
 public:
  void add(double seconds) {
    nanos_.fetch_add(static_cast<std::int64_t>(seconds * 1e9), std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset() { nanos_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> nanos_{0};
};

// Fixed-bucket histogram with cumulative-style extraction.  Bucket bounds
// are shared (registry-owned) and immutable, so observe() is a binary
// search plus two relaxed atomics.
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 64;

  // Upper bounds for latency metrics: 1-2-5 decades, 1 µs .. 500 s.
  static std::span<const double> latency_bounds();

  explicit Histogram(std::span<const double> bounds = latency_bounds());

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;       // per-bucket upper bound
    std::vector<std::uint64_t> counts;  // per-bucket counts + final overflow slot
    std::uint64_t count = 0;
    double sum = 0;

    // Linear interpolation inside the owning bucket; q in [0, 1].
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  std::span<const double> bounds_;
  std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_nanos_{0};  // sum scaled by 1e9 (ns for seconds)
};

// RAII stage timer.  Construction and destruction each read the monotonic
// clock once.
//
// The two-argument form additionally records the span into the thread's
// active trace (obs/trace.hpp) under `trace_name`, building the per-query
// span tree; when no trace is active the extra cost is one thread-local
// load.  `trace_name` must point at storage outliving the span (string
// literals in practice).
class Span {
 public:
  explicit Span(Histogram& h);
  Span(Histogram& h, const char* trace_name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Wall time since construction.
  [[nodiscard]] double seconds() const;
  // Elapsed minus the time spent inside already-closed child spans.
  [[nodiscard]] double self_seconds() const { return seconds() - child_seconds_; }
  [[nodiscard]] int depth() const { return depth_; }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* hist_;
  Span* parent_ = nullptr;
  int depth_ = 0;
  bool traced_ = false;  // opened a trace span that ~Span must close
  double child_seconds_ = 0;
  Clock::time_point start_;
};

// One registered metric as the exporters see it.
struct MetricView {
  enum class Kind { kCounter, kGauge, kTime, kHistogram };
  std::string name;    // Prometheus family name, e.g. "vc_stage_seconds"
  std::string labels;  // pre-rendered label body, e.g. "stage=\"verify\"" (may be empty)
  std::string help;
  Kind kind = Kind::kCounter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const TimeCounter* time = nullptr;
  const Histogram* histogram = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every instrumented layer reports into.
  static MetricsRegistry& global();

  // First call with a given (name, labels) pair registers the metric; later
  // calls return the same object.  `help` is kept from the first call.
  // Returned references stay valid for the registry's lifetime.  Requesting
  // an existing key as a different metric kind throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& labels = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "",
               const std::string& help = "");
  TimeCounter& time_counter(const std::string& name, const std::string& labels = "",
                            const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& labels = "",
                       const std::string& help = "",
                       std::span<const double> bounds = Histogram::latency_bounds());

  // Convenience for the pipeline's dominant family.
  Histogram& stage(const std::string& stage_name) {
    return histogram("vc_stage_seconds", "stage=\"" + stage_name + "\"",
                     "Wall time per proof-pipeline stage");
  }

  // Stable snapshot of every registered metric, in registration order.
  [[nodiscard]] std::vector<MetricView> metrics() const;

  // Zeroes every value; registered objects (and references to them) survive.
  void reset_values();

  [[nodiscard]] double uptime_seconds() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vc::obs
