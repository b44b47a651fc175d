// Per-query distributed tracing (the forensic layer over obs/metrics).
//
// Aggregate 1-2-5 histograms say how fast the fleet is on average; they
// cannot say why *one* query was slow.  This module upgrades the RAII
// Span chain into a real span tree: while a trace is active on a thread,
// every named Span also records a SpanRecord — name, wall start/end,
// thread, parent span and key attributes (epoch, term count,
// witness-tier hit/miss, lazy store materialization) — into the trace's
// lock-light striped buffers.  Completed traces land in a bounded
// TraceCollector ring with reservoir sampling, plus an always-keep ring
// for traces over the slow threshold (slow-query forensics), and render
// as a JSON span tree or as Chrome trace_event JSON that loads directly
// in chrome://tracing / Perfetto.
//
// Trace identity: a 64-bit trace ID minted at the client, carried in the
// signed protocol structs (Query/SearchResponse) and in the X-VC-Trace
// HTTP header, so one ID follows a request client → cloud → response.
//
// Propagation: ThreadPool::submit and parallel_for capture the calling
// thread's binding (active trace + current span) and install it in the
// worker, so fan-out spans parent correctly across threads.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vc::obs {

// One attribute on a span: either a 64-bit integer or a short string.
struct TraceAttr {
  std::string key;
  bool is_string = false;
  std::int64_t num = 0;
  std::string str;
};

// One completed span as stored in a trace.
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root (no parent)
  std::string name;
  std::uint64_t start_ns = 0;  // relative to trace start (steady clock)
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  // dense per-process thread index
  std::vector<TraceAttr> attrs;
};

// A trace being recorded.  Appends are striped by thread so concurrent
// pool workers almost never contend on the same mutex.
class TraceData {
 public:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kMaxSpans = 4096;  // per-trace memory bound

  explicit TraceData(std::uint64_t trace_id);

  [[nodiscard]] std::uint64_t id() const { return id_.load(std::memory_order_relaxed); }
  // The ID may be upgraded once the signed query is decoded (the HTTP layer
  // starts the trace before it has parsed the body).
  void set_id(std::uint64_t id) { id_.store(id, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_span_id() {
    return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  // Nanoseconds since the trace started (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] std::uint64_t unix_start_ns() const { return unix_start_ns_; }

  void record(SpanRecord&& rec);
  // Drains every stripe, sorted by (start_ns, span_id).
  [[nodiscard]] std::vector<SpanRecord> take_spans();
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Stripe {
    std::mutex mu;
    std::vector<SpanRecord> spans;
  };
  std::atomic<std::uint64_t> id_;
  std::atomic<std::uint64_t> next_span_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point start_;
  std::uint64_t unix_start_ns_ = 0;
  std::array<Stripe, kStripes> stripes_;
};

using TracePtr = std::shared_ptr<TraceData>;

// A finished, immutable trace as the collector and exporters see it.
struct FinishedTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t unix_start_ns = 0;  // wall clock at trace start
  std::uint64_t duration_ns = 0;    // root span duration
  std::string root_name;
  std::uint64_t dropped_spans = 0;
  std::vector<SpanRecord> spans;  // sorted by (start_ns, span_id)
};

// --- cross-thread propagation ------------------------------------------------

// What a worker needs to continue a trace: the trace and the span to parent
// new spans under.  An empty binding (no trace) installs as a no-op.
struct TraceBinding {
  TracePtr trace;
  std::uint64_t parent_span = 0;
};

// Captures the calling thread's active trace + current span.
[[nodiscard]] TraceBinding current_trace_binding();

// Installs a captured binding for the guard's lifetime (pool task bodies).
class TraceBindGuard {
 public:
  explicit TraceBindGuard(const TraceBinding& b);
  ~TraceBindGuard();
  TraceBindGuard(const TraceBindGuard&) = delete;
  TraceBindGuard& operator=(const TraceBindGuard&) = delete;

 private:
  TracePtr prev_trace_;
  std::uint64_t prev_parent_ = 0;
  bool installed_ = false;
};

// --- span hooks (called by obs::Span) ---------------------------------------

namespace trace_detail {
// Opens a named span under the thread's active trace.  Returns false (and
// records nothing) when no trace is active; a true return must be paired
// with end_span().
bool begin_span(const char* name);
void end_span();
}  // namespace trace_detail

// Attaches an attribute to the innermost open traced span on this thread.
// No-op without an active trace (one thread-local load), so instrumented
// layers call it unconditionally.
void trace_attr(const char* key, std::int64_t value);
void trace_attr(const char* key, std::string value);

// Random (non-cryptographic) nonzero 64-bit trace ID.
[[nodiscard]] std::uint64_t mint_trace_id();

// --- root scope --------------------------------------------------------------

// RAII root of one trace: installs a fresh TraceData on this thread, opens
// the root span, and on destruction finalizes the trace and offers it to
// the global TraceCollector.
class TraceScope {
 public:
  // trace_id == 0 mints one.
  TraceScope(std::uint64_t trace_id, const char* root_name);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  [[nodiscard]] std::uint64_t trace_id() const { return trace_->id(); }
  // Upgrade the ID once the authoritative one is known (signed query body).
  void set_trace_id(std::uint64_t id) {
    if (id != 0) trace_->set_id(id);
  }

 private:
  TracePtr trace_;
  TracePtr prev_trace_;
  std::uint64_t prev_parent_ = 0;
  const char* root_name_;
};

// --- collector ---------------------------------------------------------------

// Bounded keep-policy over finished traces: a reservoir sample of all
// traffic plus an always-keep FIFO ring for traces over the slow
// threshold.  Slow traces optionally emit one structured JSON log line on
// stderr (the slow-query log).
class TraceCollector {
 public:
  static TraceCollector& global();

  // All three knobs are overridable; the defaults are 250 ms / 128 / 64.
  void configure(std::size_t sample_capacity, std::uint64_t slow_ns,
                 std::size_t slow_capacity);
  void set_slow_threshold_ns(std::uint64_t ns) {
    slow_ns_.store(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t slow_threshold_ns() const {
    return slow_ns_.load(std::memory_order_relaxed);
  }
  // Enables the stderr slow-query log (off by default; vcsearch-serve
  // turns it on).
  void set_slow_log(bool on) { log_slow_.store(on, std::memory_order_relaxed); }

  void offer(std::shared_ptr<const FinishedTrace> trace);

  [[nodiscard]] std::shared_ptr<const FinishedTrace> find(std::uint64_t trace_id) const;
  // Every kept trace (sampled + slow), newest last; no duplicates.
  [[nodiscard]] std::vector<std::shared_ptr<const FinishedTrace>> traces() const;
  // The n slowest kept traces, slowest first.
  [[nodiscard]] std::vector<std::shared_ptr<const FinishedTrace>> slowest(
      std::size_t n) const;
  [[nodiscard]] std::uint64_t seen() const;
  void clear();

 private:
  TraceCollector() = default;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const FinishedTrace>> sampled_;  // reservoir
  std::deque<std::shared_ptr<const FinishedTrace>> slow_;      // FIFO always-keep
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;  // reservoir replacement
  std::size_t sample_capacity_ = 128;
  std::size_t slow_capacity_ = 64;
  std::atomic<std::uint64_t> slow_ns_{250'000'000};
  std::atomic<bool> log_slow_{false};
};

// --- rendering ---------------------------------------------------------------

// 16-hex-digit form used in headers, URLs and logs.
std::string trace_id_hex(std::uint64_t id);
// Parses hex (with or without 0x); returns 0 on malformed input.
std::uint64_t parse_trace_id(const std::string& hex);

// {"trace_id":"...","duration_ms":...,"spans":[{..., "children": implied by
// parent ids}]}: the GET /traces/<id> body.
std::string render_trace_json(const FinishedTrace& trace);
// Chrome trace_event format ("traceEvents" array of complete "X" events);
// loads in chrome://tracing and Perfetto.
std::string render_trace_chrome(const FinishedTrace& trace);
// Summary list for GET /traces.
std::string render_trace_list_json(const TraceCollector& collector);
// The one-line slow-query log object (no trailing newline).
std::string render_slow_log_line(const FinishedTrace& trace, std::uint64_t threshold_ns);
// Human-readable top-N slowest table for --profile shutdown dumps.
std::string render_slowest_table(const TraceCollector& collector, std::size_t n);

}  // namespace vc::obs
