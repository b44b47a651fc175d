// Distributed-tracing tests: ID propagation end to end over HTTP, span-tree
// integrity across pool fan-out, collector keep policy (reservoir + slow
// always-keep), renderer shape, and a concurrent
// recording hammer (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "data/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/cloud.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

TestbedOptions trace_testbed_options() {
  TestbedOptions opts;
  opts.corpus = SynthSpec{.name = "trace", .num_docs = 40, .min_doc_words = 25,
                          .max_doc_words = 60, .vocab_size = 200, .zipf_s = 0.9, .seed = 47};
  opts.index.modulus_bits = 512;
  opts.index.rep_bits = 64;
  opts.index.interval_size = 8;
  opts.index.bloom = BloomParams{.counters = 512, .hashes = 1, .domain = "vc.bloom.docs"};
  opts.pool_workers = 2;
  return opts;
}

// Builds a synthetic FinishedTrace of a given duration for collector tests.
std::shared_ptr<const obs::FinishedTrace> synthetic_trace(std::uint64_t id,
                                                          std::uint64_t duration_ns) {
  auto t = std::make_shared<obs::FinishedTrace>();
  t->trace_id = id;
  t->duration_ns = duration_ns;
  t->root_name = "synthetic";
  obs::SpanRecord root;
  root.span_id = 1;
  root.name = "synthetic";
  root.end_ns = duration_ns;
  t->spans.push_back(std::move(root));
  return t;
}

class TraceCollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& c = obs::TraceCollector::global();
    c.clear();
    c.configure(8, 1'000'000'000ull, 4);  // 8 sampled, slow >= 1s, 4 slow kept
    c.set_slow_log(false);
  }
  void TearDown() override {
    auto& c = obs::TraceCollector::global();
    c.clear();
    c.configure(128, 250'000'000ull, 64);
  }
};

TEST_F(TraceCollectorTest, ReservoirIsBoundedAndFindWorks) {
  auto& c = obs::TraceCollector::global();
  for (std::uint64_t i = 1; i <= 100; ++i) {
    c.offer(synthetic_trace(i, 1'000'000));  // 1ms: all fast
  }
  EXPECT_EQ(c.seen(), 100u);
  auto kept = c.traces();
  EXPECT_EQ(kept.size(), 8u);  // reservoir capacity, not 100
  for (const auto& t : kept) {
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(c.find(t->trace_id), t);
  }
  EXPECT_EQ(c.find(0xdead'beefull), nullptr);
}

TEST_F(TraceCollectorTest, SlowTracesAlwaysKeptUntilFifoEviction) {
  auto& c = obs::TraceCollector::global();
  // Flood with fast traffic so the reservoir is hostile to any single id.
  for (std::uint64_t i = 1; i <= 500; ++i) c.offer(synthetic_trace(i, 1'000'000));
  // Slow traces (2s > 1s threshold) must be kept regardless of the flood.
  c.offer(synthetic_trace(1001, 2'000'000'000ull));
  for (std::uint64_t i = 501; i <= 900; ++i) c.offer(synthetic_trace(i, 1'000'000));
  EXPECT_NE(c.find(1001), nullptr);

  // FIFO eviction: pushing slow_capacity (4) more slow traces evicts 1001.
  for (std::uint64_t i = 1002; i <= 1005; ++i) {
    c.offer(synthetic_trace(i, 2'000'000'000ull));
  }
  EXPECT_EQ(c.find(1001), nullptr);
  for (std::uint64_t i = 1002; i <= 1005; ++i) EXPECT_NE(c.find(i), nullptr);

  // slowest() ranks the kept slow traces first.
  auto slowest = c.slowest(2);
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_GE(slowest[0]->duration_ns, slowest[1]->duration_ns);
}

TEST_F(TraceCollectorTest, TraceScopeRecordsATreeAcrossParallelFor) {
  auto& c = obs::TraceCollector::global();
  auto& reg = obs::MetricsRegistry::global();
  obs::Histogram& outer = reg.stage("test_outer");
  obs::Histogram& inner = reg.stage("test_inner");

  ThreadPool pool(3);
  std::uint64_t id = obs::mint_trace_id();
  {
    obs::TraceScope scope(id, "test_root");
    EXPECT_EQ(scope.trace_id(), id);
    obs::Span mid(outer, "test_outer");
    obs::trace_attr("answer", std::int64_t{42});
    obs::trace_attr("kind", std::string("hammer"));
    pool.parallel_for(0, 16, [&](std::size_t) {
      obs::Span leaf(inner, "test_inner");
      obs::trace_attr("leaf", std::int64_t{1});
    });
  }

  auto trace = c.find(id);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root_name, "test_root");
  EXPECT_GT(trace->duration_ns, 0u);
  EXPECT_EQ(trace->dropped_spans, 0u);
  // 1 root + 1 outer + 16 leaves.
  ASSERT_EQ(trace->spans.size(), 18u);

  std::set<std::uint64_t> ids;
  std::uint64_t root_id = 0, outer_id = 0;
  std::size_t roots = 0, leaves = 0;
  for (const auto& s : trace->spans) {
    EXPECT_TRUE(ids.insert(s.span_id).second) << "duplicate span id";
    EXPECT_LE(s.start_ns, s.end_ns);
    if (s.parent_id == 0) {
      ++roots;
      root_id = s.span_id;
      EXPECT_EQ(s.name, "test_root");
    }
    if (s.name == "test_outer") outer_id = s.span_id;
    if (s.name == "test_inner") ++leaves;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(leaves, 16u);
  ASSERT_NE(outer_id, 0u);
  // Every non-root parent must exist, and every leaf recorded on a pool
  // worker must parent under the span that was open when the work fanned
  // out (the binding captured by parallel_for).
  for (const auto& s : trace->spans) {
    if (s.parent_id != 0) EXPECT_TRUE(ids.count(s.parent_id)) << "orphan span " << s.name;
    if (s.name == "test_outer") EXPECT_EQ(s.parent_id, root_id);
    if (s.name == "test_inner") EXPECT_EQ(s.parent_id, outer_id);
  }

  // Attributes landed on the spans they were set under.
  bool saw_answer = false;
  for (const auto& s : trace->spans) {
    for (const auto& a : s.attrs) {
      if (a.key == "answer") {
        saw_answer = true;
        EXPECT_EQ(s.name, "test_outer");
        EXPECT_EQ(a.num, 42);
      }
    }
  }
  EXPECT_TRUE(saw_answer);

  // Renderers produce the advertised shape.
  std::string json = obs::render_trace_json(*trace);
  EXPECT_NE(json.find("\"trace_id\":\"" + obs::trace_id_hex(id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  std::string chrome = obs::render_trace_chrome(*trace);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  std::string line = obs::render_slow_log_line(*trace, 0);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"slow_query\""), std::string::npos);
}

TEST_F(TraceCollectorTest, ConcurrentSpanHammerKeepsAccounting) {
  auto& c = obs::TraceCollector::global();
  auto& reg = obs::MetricsRegistry::global();
  obs::Histogram& stage = reg.stage("test_hammer");

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 300;
  std::uint64_t id = obs::mint_trace_id();
  {
    obs::TraceScope scope(id, "hammer_root");
    const obs::TraceBinding binding = obs::current_trace_binding();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        obs::TraceBindGuard guard(binding);
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::Span s(stage, "test_hammer");
          obs::trace_attr("i", static_cast<std::int64_t>(i));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  auto trace = c.find(id);
  ASSERT_NE(trace, nullptr);
  // Recorded + dropped covers every opened span (root included); the
  // per-trace bound means some of the 2400 may drop, never double-count.
  EXPECT_EQ(trace->spans.size() + trace->dropped_spans,
            static_cast<std::size_t>(kThreads * kSpansPerThread) + 1);
  std::set<std::uint64_t> ids;
  for (const auto& s : trace->spans) {
    EXPECT_TRUE(ids.insert(s.span_id).second);
  }
}

TEST_F(TraceCollectorTest, ConcurrentOfferIsSafe) {
  auto& c = obs::TraceCollector::global();
  std::atomic<std::uint64_t> next{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        std::uint64_t id = next.fetch_add(1);
        c.offer(synthetic_trace(id, i % 7 == 0 ? 2'000'000'000ull : 1'000'000ull));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.seen(), 800u);
  EXPECT_LE(c.traces().size(), 8u + 4u);
}

TEST(TraceIdTest, HexRoundTripAndMintNonzero) {
  EXPECT_EQ(obs::trace_id_hex(0x1234'5678'9abc'def0ull), "123456789abcdef0");
  EXPECT_EQ(obs::parse_trace_id("123456789abcdef0"), 0x1234'5678'9abc'def0ull);
  EXPECT_EQ(obs::parse_trace_id("0x123456789abcdef0"), 0x1234'5678'9abc'def0ull);
  EXPECT_EQ(obs::parse_trace_id("not-hex"), 0u);
  EXPECT_EQ(obs::parse_trace_id(""), 0u);
  std::set<std::uint64_t> minted;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t id = obs::mint_trace_id();
    EXPECT_NE(id, 0u);
    minted.insert(id);
  }
  EXPECT_EQ(minted.size(), 64u);  // no collisions in a small draw
}

// --- end-to-end over HTTP ----------------------------------------------------

class TraceHttpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new Testbed(trace_testbed_options());
    cloud_ = new CloudService(bed_->vindex().snapshot(), bed_->public_ctx(),
                              bed_->cloud_key(), bed_->owner_key().verify_key(),
                              &bed_->pool());
  }
  static void TearDownTestSuite() {
    delete cloud_;
    delete bed_;
    bed_ = nullptr;
    cloud_ = nullptr;
  }

  void SetUp() override { obs::TraceCollector::global().clear(); }

  static DataOwner make_owner() {
    return DataOwner(bed_->owner_ctx(), bed_->owner_key(),
                     bed_->cloud_key().verify_key(), bed_->options().index);
  }

  static Testbed* bed_;
  static CloudService* cloud_;
};

Testbed* TraceHttpTest::bed_ = nullptr;
CloudService* TraceHttpTest::cloud_ = nullptr;

TEST_F(TraceHttpTest, SignedTraceIdPropagatesAndIsServed) {
  HttpFrontend frontend(*cloud_, 0, &bed_->pool());
  frontend.start();
  DataOwner owner = make_owner();
  std::uint64_t id = obs::mint_trace_id();
  std::vector<std::string> kws = {synth_word(bed_->options().corpus, 0),
                                  synth_word(bed_->options().corpus, 1)};
  SignedQuery q = owner.issue_query(kws, id);
  EXPECT_EQ(q.query.trace_id, id);

  SearchResponse resp = http_search(frontend.port(), q);
  // The signed trace id is echoed in the (signed) response and verified.
  EXPECT_EQ(resp.trace_id, id);
  EXPECT_NO_THROW(owner.receive_response(resp));

  // The server kept the trace under that id, fetchable after the response.
  std::string body =
      http_request(frontend.port(), "GET", "/traces/" + obs::trace_id_hex(id), "");
  EXPECT_NE(body.find(obs::trace_id_hex(id)), std::string::npos);
  EXPECT_NE(body.find("\"query\""), std::string::npos);  // engine span present
  std::string chrome = http_request(
      frontend.port(), "GET", "/traces/" + obs::trace_id_hex(id) + "/chrome", "");
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  frontend.stop();
}

TEST_F(TraceHttpTest, HeaderTraceIdWinsOverSignedId) {
  HttpFrontend frontend(*cloud_, 0, &bed_->pool());
  frontend.start();
  DataOwner owner = make_owner();
  std::uint64_t signed_id = obs::mint_trace_id();
  std::uint64_t header_id = obs::mint_trace_id();
  SignedQuery q =
      owner.issue_query({synth_word(bed_->options().corpus, 0)}, signed_id);
  SearchResponse resp = http_search(frontend.port(), q, header_id);
  // The wire echo is the signed id (the owner verifies it)...
  EXPECT_EQ(resp.trace_id, signed_id);
  EXPECT_NO_THROW(owner.receive_response(resp));
  // ...but the recorded trace carries the header id (the caller's handle).
  EXPECT_NE(obs::TraceCollector::global().find(header_id), nullptr);
  frontend.stop();
}

TEST_F(TraceHttpTest, UntracedQueryGetsServerMintedTrace) {
  HttpFrontend frontend(*cloud_, 0, &bed_->pool());
  frontend.start();
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query({synth_word(bed_->options().corpus, 0)});
  EXPECT_EQ(q.query.trace_id, 0u);
  SearchResponse resp = http_search(frontend.port(), q);
  EXPECT_EQ(resp.trace_id, 0u);
  EXPECT_NO_THROW(owner.receive_response(resp));
  // A minted-id trace was still collected for the request.
  EXPECT_EQ(obs::TraceCollector::global().seen(), 1u);
  auto kept = obs::TraceCollector::global().traces();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_NE(kept[0]->trace_id, 0u);
  frontend.stop();
}

TEST_F(TraceHttpTest, TraceListAndStatsExposeCollector) {
  HttpFrontend frontend(*cloud_, 0, &bed_->pool());
  frontend.start();
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query({synth_word(bed_->options().corpus, 0)},
                                    obs::mint_trace_id());
  (void)http_search(frontend.port(), q);
  std::string list = http_request(frontend.port(), "GET", "/traces", "");
  EXPECT_NE(list.find("\"traces\""), std::string::npos);
  EXPECT_NE(list.find(obs::trace_id_hex(q.query.trace_id)), std::string::npos);
  std::string stats = http_request(frontend.port(), "GET", "/stats", "");
  EXPECT_NE(stats.find("\"traces_seen\""), std::string::npos);
  EXPECT_NE(stats.find("\"traces_kept\""), std::string::npos);
  frontend.stop();
}

}  // namespace
}  // namespace vc
