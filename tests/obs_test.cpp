// Telemetry layer: counters, gauges, time counters, histogram percentiles,
// span nesting/self-time, registry find-or-create semantics, and the
// Prometheus/JSON/profile renderers.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace vc::obs {
namespace {

// Each test works against its own registry so tests can't see each other's
// metrics; the process-wide singleton is only touched by the render tests.
class Obs : public ::testing::Test {};

TEST_F(Obs, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test_ops_total", "", "ops");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = reg.gauge("test_depth", "", "depth");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);

  TimeCounter& t = reg.time_counter("test_busy_seconds_total", "", "busy");
  t.add(0.25);
  t.add(0.5);
  EXPECT_NEAR(t.seconds(), 0.75, 1e-9);
  t.add(-1.0);  // deltas may be negative (estimate-minus-actual)
  EXPECT_NEAR(t.seconds(), -0.25, 1e-9);
}

TEST_F(Obs, RegistryFindOrCreate) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same_total", "k=\"1\"", "");
  Counter& b = reg.counter("same_total", "k=\"1\"", "");
  Counter& c = reg.counter("same_total", "k=\"2\"", "");
  EXPECT_EQ(&a, &b);   // identical name+labels -> same object
  EXPECT_NE(&a, &c);   // different labels -> distinct series
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(c.value(), 0u);
  // Re-registering under a different kind is a programming error.
  EXPECT_THROW(reg.gauge("same_total", "k=\"1\"", ""), std::logic_error);
}

TEST_F(Obs, HistogramCountsAndPercentiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test_lat_seconds", "", "");
  // 100 observations spread 1ms..100ms: quantiles should land in range.
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-3);
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum, 5.05, 0.01);
  EXPECT_NEAR(snap.mean(), 0.0505, 1e-4);
  double p50 = snap.quantile(0.50);
  double p95 = snap.quantile(0.95);
  double p99 = snap.quantile(0.99);
  // Bucketed estimates: p50 ~ 50ms within one 1-2-5 bucket either side.
  EXPECT_GE(p50, 0.02);
  EXPECT_LE(p50, 0.1);
  EXPECT_GE(p95, p50);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 0.2);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(Obs, HistogramExtremesClampToEdgeBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test_edge_seconds", "", "");
  h.observe(1e-9);   // below the smallest bound
  h.observe(1e6);    // beyond the largest bound
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_GT(snap.quantile(0.99), snap.quantile(0.01));
}

TEST_F(Obs, SpanRecordsAndNests) {
  MetricsRegistry reg;
  Histogram& outer_h = reg.histogram("span_outer_seconds", "", "");
  Histogram& inner_h = reg.histogram("span_inner_seconds", "", "");
  {
    Span outer(outer_h);
    EXPECT_EQ(outer.depth(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Span inner(inner_h);
      EXPECT_EQ(inner.depth(), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Inner time is attributed to the child; self time excludes it.
    EXPECT_GE(outer.seconds(), outer.self_seconds());
  }
  EXPECT_EQ(outer_h.snapshot().count, 1u);
  EXPECT_EQ(inner_h.snapshot().count, 1u);
  // The outer span covers at least the inner one.
  EXPECT_GE(outer_h.snapshot().sum, inner_h.snapshot().sum);
}

TEST_F(Obs, ResetValuesKeepsObjectsValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("resettable_total", "", "");
  c.inc(9);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(Obs, PrometheusRenderShape) {
  MetricsRegistry reg;
  reg.counter("render_ops_total", "scheme=\"hybrid\"", "ops served").inc(3);
  reg.histogram("render_lat_seconds", "", "latency").observe(0.01);
  std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("# TYPE render_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("render_ops_total{scheme=\"hybrid\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE render_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("render_lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("render_lat_seconds_count 1"), std::string::npos);
}

TEST_F(Obs, JsonRenderShape) {
  MetricsRegistry reg;
  reg.counter("j_ops_total", "", "").inc(2);
  reg.histogram("j_lat_seconds", "", "").observe(0.25);
  std::string json = render_json(reg);
  EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"j_ops_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(Obs, ProfileRenderListsStages) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vc_stage_seconds", "stage=\"unit_test\"", "");
  h.observe(0.002);
  h.observe(0.004);
  std::string text = render_profile(reg);
  EXPECT_NE(text.find("unit_test"), std::string::npos);
  EXPECT_NE(text.find("stage"), std::string::npos);
}

TEST_F(Obs, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
}

TEST_F(Obs, StageConvenienceSharesFamily) {
  MetricsRegistry reg;
  Histogram& a = reg.stage("prove");
  Histogram& b = reg.stage("prove");
  EXPECT_EQ(&a, &b);
  a.observe(0.001);
  std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("vc_stage_seconds_bucket{stage=\"prove\",le="), std::string::npos);
}

}  // namespace
}  // namespace vc::obs
