#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace vc::obs {

namespace {

// Dense thread index for the chrome export's tid field (std::thread::id is
// opaque and non-reproducible across runs).
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

// The thread's active trace + the span new spans parent under.
thread_local TracePtr t_trace;
thread_local std::uint64_t t_parent = 0;

// Spans opened on this thread that have not closed yet.  Strict RAII
// nesting (Span destructors fire in reverse construction order, and
// TraceBindGuards live strictly inside the spans that enclose them) keeps
// this a stack even when bindings swap the active trace mid-frame.
struct OpenSpan {
  TracePtr trace;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::vector<TraceAttr> attrs;
};
thread_local std::vector<OpenSpan> t_open;

constexpr std::size_t kMaxAttrsPerSpan = 24;

obs::Counter& traces_total() {
  static obs::Counter& c = MetricsRegistry::global().counter(
      "vc_traces_total", "", "Traces completed and offered to the collector");
  return c;
}
obs::Counter& traces_slow_total() {
  static obs::Counter& c = MetricsRegistry::global().counter(
      "vc_traces_slow_total", "", "Traces over the slow-query threshold");
  return c;
}

}  // namespace

// --- TraceData ---------------------------------------------------------------

TraceData::TraceData(std::uint64_t trace_id)
    : id_(trace_id), start_(std::chrono::steady_clock::now()) {
  unix_start_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t TraceData::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void TraceData::record(SpanRecord&& rec) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Stripe& stripe = stripes_[thread_index() % kStripes];
  std::lock_guard lock(stripe.mu);
  stripe.spans.push_back(std::move(rec));
}

std::vector<SpanRecord> TraceData::take_spans() {
  std::vector<SpanRecord> out;
  for (Stripe& stripe : stripes_) {
    std::lock_guard lock(stripe.mu);
    out.insert(out.end(), std::make_move_iterator(stripe.spans.begin()),
               std::make_move_iterator(stripe.spans.end()));
    stripe.spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  });
  return out;
}

// --- propagation -------------------------------------------------------------

TraceBinding current_trace_binding() { return TraceBinding{t_trace, t_parent}; }

TraceBindGuard::TraceBindGuard(const TraceBinding& b) {
  if (b.trace == nullptr) return;
  prev_trace_ = t_trace;
  prev_parent_ = t_parent;
  t_trace = b.trace;
  t_parent = b.parent_span;
  installed_ = true;
}

TraceBindGuard::~TraceBindGuard() {
  if (!installed_) return;
  t_trace = std::move(prev_trace_);
  t_parent = prev_parent_;
}

// --- span hooks --------------------------------------------------------------

namespace trace_detail {

bool begin_span(const char* name) {
  if (t_trace == nullptr) return false;
  OpenSpan open;
  open.trace = t_trace;
  open.id = t_trace->next_span_id();
  open.parent = t_parent;
  open.name = name;
  open.start_ns = t_trace->now_ns();
  t_open.push_back(std::move(open));
  t_parent = t_open.back().id;
  return true;
}

void end_span() {
  OpenSpan open = std::move(t_open.back());
  t_open.pop_back();
  t_parent = open.parent;
  SpanRecord rec;
  rec.span_id = open.id;
  rec.parent_id = open.parent;
  rec.name = open.name;
  rec.start_ns = open.start_ns;
  rec.end_ns = open.trace->now_ns();
  rec.thread = thread_index();
  rec.attrs = std::move(open.attrs);
  open.trace->record(std::move(rec));
}

}  // namespace trace_detail

void trace_attr(const char* key, std::int64_t value) {
  if (t_open.empty()) return;
  auto& attrs = t_open.back().attrs;
  if (attrs.size() >= kMaxAttrsPerSpan) return;
  attrs.push_back(TraceAttr{.key = key, .is_string = false, .num = value, .str = {}});
}

void trace_attr(const char* key, std::string value) {
  if (t_open.empty()) return;
  auto& attrs = t_open.back().attrs;
  if (attrs.size() >= kMaxAttrsPerSpan) return;
  attrs.push_back(
      TraceAttr{.key = key, .is_string = true, .num = 0, .str = std::move(value)});
}

std::uint64_t mint_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  thread_local std::uint64_t state = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
           std::chrono::steady_clock::now().time_since_epoch().count();
  }();
  // splitmix64 step keeps per-thread sequences independent and nonzero.
  state += 0x9e3779b97f4a7c15ull + (counter.fetch_add(1, std::memory_order_relaxed) << 1);
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// --- TraceScope --------------------------------------------------------------

TraceScope::TraceScope(std::uint64_t trace_id, const char* root_name)
    : root_name_(root_name) {
  prev_trace_ = t_trace;
  prev_parent_ = t_parent;
  trace_ = std::make_shared<TraceData>(trace_id != 0 ? trace_id : mint_trace_id());
  t_trace = trace_;
  t_parent = 0;
  trace_detail::begin_span(root_name_);
}

TraceScope::~TraceScope() {
  trace_detail::end_span();
  t_trace = std::move(prev_trace_);
  t_parent = prev_parent_;

  auto fin = std::make_shared<FinishedTrace>();
  fin->trace_id = trace_->id();
  fin->unix_start_ns = trace_->unix_start_ns();
  fin->root_name = root_name_;
  fin->spans = trace_->take_spans();
  fin->dropped_spans = trace_->dropped();
  for (const SpanRecord& s : fin->spans) {
    if (s.parent_id == 0) {
      fin->duration_ns = std::max(fin->duration_ns, s.end_ns - s.start_ns);
    }
  }
  TraceCollector::global().offer(std::move(fin));
}

// --- TraceCollector ----------------------------------------------------------

TraceCollector& TraceCollector::global() {
  // Leaked on purpose, like MetricsRegistry: traced code may run during
  // static destruction.
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::configure(std::size_t sample_capacity, std::uint64_t slow_ns,
                               std::size_t slow_capacity) {
  std::lock_guard lock(mu_);
  sample_capacity_ = std::max<std::size_t>(1, sample_capacity);
  slow_capacity_ = std::max<std::size_t>(1, slow_capacity);
  slow_ns_.store(slow_ns, std::memory_order_relaxed);
  while (sampled_.size() > sample_capacity_) sampled_.pop_back();
  while (slow_.size() > slow_capacity_) slow_.pop_front();
}

void TraceCollector::offer(std::shared_ptr<const FinishedTrace> trace) {
  if (trace == nullptr) return;
  traces_total().inc();
  const std::uint64_t threshold = slow_ns_.load(std::memory_order_relaxed);
  const bool slow = threshold > 0 && trace->duration_ns >= threshold;
  if (slow) {
    traces_slow_total().inc();
    if (log_slow_.load(std::memory_order_relaxed)) {
      std::string line = render_slow_log_line(*trace, threshold);
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  std::lock_guard lock(mu_);
  ++seen_;
  if (slow) {
    // Always-keep ring: slow traces never compete with the reservoir, and
    // eviction is strictly oldest-first.
    slow_.push_back(std::move(trace));
    if (slow_.size() > slow_capacity_) slow_.pop_front();
    return;
  }
  if (sampled_.size() < sample_capacity_) {
    sampled_.push_back(std::move(trace));
    return;
  }
  // Reservoir replacement (Vitter's R): slot probability K/seen.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  std::uint64_t pick = rng_state_ % seen_;
  if (pick < sampled_.size()) sampled_[pick] = std::move(trace);
}

std::shared_ptr<const FinishedTrace> TraceCollector::find(std::uint64_t trace_id) const {
  std::lock_guard lock(mu_);
  // Newest wins on ID collision; slow ring searched first (it is the one
  // forensics cares about).
  for (auto it = slow_.rbegin(); it != slow_.rend(); ++it) {
    if ((*it)->trace_id == trace_id) return *it;
  }
  for (auto it = sampled_.rbegin(); it != sampled_.rend(); ++it) {
    if ((*it)->trace_id == trace_id) return *it;
  }
  return nullptr;
}

std::vector<std::shared_ptr<const FinishedTrace>> TraceCollector::traces() const {
  std::lock_guard lock(mu_);
  std::vector<std::shared_ptr<const FinishedTrace>> out;
  out.reserve(sampled_.size() + slow_.size());
  out.insert(out.end(), sampled_.begin(), sampled_.end());
  out.insert(out.end(), slow_.begin(), slow_.end());
  return out;
}

std::vector<std::shared_ptr<const FinishedTrace>> TraceCollector::slowest(
    std::size_t n) const {
  std::vector<std::shared_ptr<const FinishedTrace>> all = traces();
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a->duration_ns > b->duration_ns;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::uint64_t TraceCollector::seen() const {
  std::lock_guard lock(mu_);
  return seen_;
}

void TraceCollector::clear() {
  std::lock_guard lock(mu_);
  sampled_.clear();
  slow_.clear();
  seen_ = 0;
}

// --- rendering ---------------------------------------------------------------

std::string trace_id_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

std::uint64_t parse_trace_id(const std::string& hex) {
  if (hex.empty()) return 0;
  const char* p = hex.c_str();
  if (hex.size() > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) p += 2;
  char* end = nullptr;
  std::uint64_t id = std::strtoull(p, &end, 16);
  if (end == p || (end != nullptr && *end != '\0')) return 0;
  return id;
}

namespace {

std::string fmt_ms(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(ns) / 1e6);
  return buf;
}

void append_attrs_json(std::string& out, const std::vector<TraceAttr>& attrs) {
  out += "{";
  bool first = true;
  for (const TraceAttr& a : attrs) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(a.key) + "\":";
    if (a.is_string) {
      out += "\"" + json_escape(a.str) + "\"";
    } else {
      out += std::to_string(a.num);
    }
  }
  out += "}";
}

}  // namespace

std::string render_trace_json(const FinishedTrace& trace) {
  std::string out = "{\"trace_id\":\"" + trace_id_hex(trace.trace_id) + "\"";
  out += ",\"root\":\"" + json_escape(trace.root_name) + "\"";
  out += ",\"unix_start_ns\":" + std::to_string(trace.unix_start_ns);
  out += ",\"duration_ms\":" + fmt_ms(trace.duration_ns);
  out += ",\"span_count\":" + std::to_string(trace.spans.size());
  if (trace.dropped_spans > 0) {
    out += ",\"dropped_spans\":" + std::to_string(trace.dropped_spans);
  }
  out += ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : trace.spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"span_id\":" + std::to_string(s.span_id);
    out += ",\"parent_id\":" + std::to_string(s.parent_id);
    out += ",\"name\":\"" + json_escape(s.name) + "\"";
    out += ",\"start_ms\":" + fmt_ms(s.start_ns);
    out += ",\"duration_ms\":" + fmt_ms(s.end_ns - s.start_ns);
    out += ",\"thread\":" + std::to_string(s.thread);
    out += ",\"attrs\":";
    append_attrs_json(out, s.attrs);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string render_trace_chrome(const FinishedTrace& trace) {
  // Complete ("ph":"X") events, timestamps in microseconds; loads in
  // chrome://tracing and Perfetto without conversion.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"trace_id\":\"" +
                    trace_id_hex(trace.trace_id) + "\"},\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : trace.spans) {
    if (!first) out += ",";
    first = false;
    char num[64];
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"vc\",\"ph\":\"X\"";
    std::snprintf(num, sizeof(num), ",\"ts\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3);
    out += num;
    std::snprintf(num, sizeof(num), ",\"dur\":%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += num;
    out += ",\"pid\":1,\"tid\":" + std::to_string(s.thread);
    out += ",\"args\":";
    std::vector<TraceAttr> args = s.attrs;
    args.push_back(TraceAttr{.key = "span_id",
                             .is_string = false,
                             .num = static_cast<std::int64_t>(s.span_id),
                             .str = {}});
    args.push_back(TraceAttr{.key = "parent_id",
                             .is_string = false,
                             .num = static_cast<std::int64_t>(s.parent_id),
                             .str = {}});
    append_attrs_json(out, args);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string render_trace_list_json(const TraceCollector& collector) {
  auto all = collector.traces();
  // Slowest first: the list is a forensic index, not a log.
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a->duration_ns > b->duration_ns;
  });
  std::string out = "{\"seen\":" + std::to_string(collector.seen());
  out += ",\"slow_threshold_ms\":" + fmt_ms(collector.slow_threshold_ns());
  out += ",\"kept\":" + std::to_string(all.size());
  out += ",\"traces\":[";
  bool first = true;
  const std::uint64_t threshold = collector.slow_threshold_ns();
  for (const auto& t : all) {
    if (!first) out += ",";
    first = false;
    out += "{\"trace_id\":\"" + trace_id_hex(t->trace_id) + "\"";
    out += ",\"root\":\"" + json_escape(t->root_name) + "\"";
    out += ",\"duration_ms\":" + fmt_ms(t->duration_ns);
    out += ",\"span_count\":" + std::to_string(t->spans.size());
    out += ",\"slow\":";
    out += (threshold > 0 && t->duration_ns >= threshold) ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

std::string render_slow_log_line(const FinishedTrace& trace, std::uint64_t threshold_ns) {
  // One JSON object per offending request; root-span attributes (epoch,
  // keywords, scheme, tier hits) are folded in so the line is greppable
  // without a follow-up /traces fetch.
  std::string out = "{\"slow_query\":true";
  out += ",\"trace_id\":\"" + trace_id_hex(trace.trace_id) + "\"";
  out += ",\"unix_start_ns\":" + std::to_string(trace.unix_start_ns);
  out += ",\"duration_ms\":" + fmt_ms(trace.duration_ns);
  out += ",\"threshold_ms\":" + fmt_ms(threshold_ns);
  out += ",\"root\":\"" + json_escape(trace.root_name) + "\"";
  out += ",\"span_count\":" + std::to_string(trace.spans.size());
  // Top self-time stages: where the time actually went.
  struct Stage {
    std::string name;
    std::uint64_t ns = 0;
  };
  std::vector<Stage> stages;
  for (const SpanRecord& s : trace.spans) {
    std::uint64_t child_ns = 0;
    for (const SpanRecord& c : trace.spans) {
      if (c.parent_id == s.span_id) child_ns += c.end_ns - c.start_ns;
    }
    std::uint64_t total = s.end_ns - s.start_ns;
    std::uint64_t self_ns = child_ns > total ? 0 : total - child_ns;
    bool merged = false;
    for (Stage& st : stages) {
      if (st.name == s.name) {
        st.ns += self_ns;
        merged = true;
        break;
      }
    }
    if (!merged) stages.push_back(Stage{s.name, self_ns});
  }
  std::sort(stages.begin(), stages.end(),
            [](const Stage& a, const Stage& b) { return a.ns > b.ns; });
  out += ",\"top_stages\":{";
  for (std::size_t i = 0; i < stages.size() && i < 3; ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(stages[i].name) + "\":" + fmt_ms(stages[i].ns);
  }
  out += "}";
  out += ",\"attrs\":";
  std::vector<TraceAttr> root_attrs;
  for (const SpanRecord& s : trace.spans) {
    if (s.parent_id != 0) continue;
    for (const TraceAttr& a : s.attrs) root_attrs.push_back(a);
  }
  append_attrs_json(out, root_attrs);
  out += "}";
  return out;
}

std::string render_slowest_table(const TraceCollector& collector, std::size_t n) {
  auto slowest = collector.slowest(n);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s  %12s  %8s  %s\n", "trace_id",
                "duration(ms)", "spans", "root");
  out += line;
  out += std::string(64, '-') + "\n";
  for (const auto& t : slowest) {
    std::snprintf(line, sizeof(line), "%-18s  %12.3f  %8zu  %s\n",
                  trace_id_hex(t->trace_id).c_str(),
                  static_cast<double>(t->duration_ns) / 1e6, t->spans.size(),
                  t->root_name.c_str());
    out += line;
  }
  if (slowest.empty()) out += "(no traces sampled)\n";
  return out;
}

}  // namespace vc::obs
