#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.hpp"

namespace vc::obs {

// --- histogram ---------------------------------------------------------------

std::span<const double> Histogram::latency_bounds() {
  // 1-2-5 series across nine decades: fine enough for p99 interpolation at
  // µs scale, coarse enough that a snapshot stays a handful of cache lines.
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 1e3; decade *= 10) {
      b.push_back(decade);
      b.push_back(decade * 2);
      b.push_back(decade * 5);
    }
    return b;
  }();
  return bounds;
}

Histogram::Histogram(std::span<const double> bounds) : bounds_(bounds) {
  if (bounds_.size() > kMaxBuckets) bounds_ = bounds_.subspan(0, kMaxBuckets);
}

void Histogram::observe(double v) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<std::int64_t>(v * 1e9), std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds.assign(bounds_.begin(), bounds_.end());
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = i < bounds.size() ? bounds[i] : lo;  // overflow bucket: report its floor
    double before = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) >= rank) {
      if (hi <= lo) return lo;
      double into = (rank - before) / static_cast<double>(counts[i]);
      return lo + into * (hi - lo);
    }
  }
  return bounds.empty() ? 0 : bounds.back();
}

// --- span --------------------------------------------------------------------

namespace {
thread_local Span* t_current_span = nullptr;
}

Span::Span(Histogram& h) : hist_(&h) {
  parent_ = t_current_span;
  depth_ = parent_ == nullptr ? 0 : parent_->depth_ + 1;
  t_current_span = this;
  start_ = Clock::now();
}

Span::Span(Histogram& h, const char* trace_name) : hist_(&h) {
  parent_ = t_current_span;
  depth_ = parent_ == nullptr ? 0 : parent_->depth_ + 1;
  t_current_span = this;
  traced_ = trace_detail::begin_span(trace_name);
  start_ = Clock::now();
}

double Span::seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

Span::~Span() {
  double elapsed = std::chrono::duration<double>(Clock::now() - start_).count();
  if (traced_) trace_detail::end_span();
  hist_->observe(elapsed);
  if (parent_ != nullptr) parent_->child_seconds_ += elapsed;
  t_current_span = parent_;
}

// --- registry ----------------------------------------------------------------

namespace {

struct Entry {
  MetricView::Kind kind;
  std::string name, labels, help;
  // Exactly one of these is engaged, fixed at registration.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<TimeCounter> time;
  std::unique_ptr<Histogram> histogram;
};

std::string key_of(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<Entry>> entries;  // registration order
  std::unordered_map<std::string, Entry*> by_key;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();

  // The payload object is constructed here, under the mutex, so that a
  // returned Entry is always complete — concurrent first registrations of
  // the same key must not race on a lazily-filled unique_ptr.
  Entry& find_or_create(MetricView::Kind kind, const std::string& name,
                        const std::string& labels, const std::string& help,
                        std::span<const double> bounds = {}) {
    std::lock_guard lock(mu);
    std::string key = key_of(name, labels);
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      if (it->second->kind != kind) {
        throw std::logic_error("obs: metric '" + key + "' registered with another kind");
      }
      return *it->second;
    }
    auto e = std::make_unique<Entry>();
    e->kind = kind;
    e->name = name;
    e->labels = labels;
    e->help = help;
    switch (kind) {
      case MetricView::Kind::kCounter: e->counter = std::make_unique<Counter>(); break;
      case MetricView::Kind::kGauge: e->gauge = std::make_unique<Gauge>(); break;
      case MetricView::Kind::kTime: e->time = std::make_unique<TimeCounter>(); break;
      case MetricView::Kind::kHistogram: e->histogram = std::make_unique<Histogram>(bounds); break;
    }
    Entry* raw = e.get();
    entries.push_back(std::move(e));
    by_key.emplace(std::move(key), raw);
    return *raw;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented code may run during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& labels,
                                  const std::string& help) {
  return *impl_->find_or_create(MetricView::Kind::kCounter, name, labels, help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& labels,
                              const std::string& help) {
  return *impl_->find_or_create(MetricView::Kind::kGauge, name, labels, help).gauge;
}

TimeCounter& MetricsRegistry::time_counter(const std::string& name, const std::string& labels,
                                           const std::string& help) {
  return *impl_->find_or_create(MetricView::Kind::kTime, name, labels, help).time;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& labels,
                                      const std::string& help, std::span<const double> bounds) {
  return *impl_->find_or_create(MetricView::Kind::kHistogram, name, labels, help, bounds).histogram;
}

std::vector<MetricView> MetricsRegistry::metrics() const {
  std::lock_guard lock(impl_->mu);
  std::vector<MetricView> out;
  out.reserve(impl_->entries.size());
  for (const auto& e : impl_->entries) {
    MetricView v;
    v.name = e->name;
    v.labels = e->labels;
    v.help = e->help;
    v.kind = e->kind;
    v.counter = e->counter.get();
    v.gauge = e->gauge.get();
    v.time = e->time.get();
    v.histogram = e->histogram.get();
    out.push_back(std::move(v));
  }
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(impl_->mu);
  for (const auto& e : impl_->entries) {
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->time) e->time->reset();
    if (e->histogram) e->histogram->reset();
  }
  impl_->start = std::chrono::steady_clock::now();
}

double MetricsRegistry::uptime_seconds() const {
  std::lock_guard lock(impl_->mu);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - impl_->start)
      .count();
}

}  // namespace vc::obs
