#include "protocol/cloud.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {

namespace {

// Per-scheme serving counters, cached in an array so the per-query cost is
// one index + one relaxed add (scheme values are the wire enum 0..3).
obs::Counter& scheme_counter(SchemeKind scheme) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter* counters[] = {
      &reg.counter("vc_cloud_queries_total", "scheme=\"accumulator\"",
                   "Signed queries served, by proof scheme"),
      &reg.counter("vc_cloud_queries_total", "scheme=\"bloom\""),
      &reg.counter("vc_cloud_queries_total", "scheme=\"interval\""),
      &reg.counter("vc_cloud_queries_total", "scheme=\"hybrid\""),
  };
  auto i = static_cast<std::size_t>(scheme);
  return *counters[i < 4 ? i : 3];
}

obs::Counter& error_counter(const char* kind) {
  auto& reg = obs::MetricsRegistry::global();
  return reg.counter("vc_cloud_errors_total", std::string("kind=\"") + kind + "\"",
                     "Queries the cloud rejected or failed on, and failed publishes");
}

obs::Gauge& publish_queue_depth() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_publish_queue_depth", "",
      "Epochs staged for the publish worker (0 or 1; newest wins)");
  return g;
}

obs::Gauge& publish_lag() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_publish_lag_ms", "",
      "Milliseconds from publish() staging an epoch to its swap");
  return g;
}

obs::Counter& publishes_dropped() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_publish_dropped_total", "",
      "Staged epochs superseded before the publish worker reached them, or older "
      "than an epoch already staged");
  return c;
}

obs::Counter& async_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_async_publishes_total", "", "publish() calls staged for the publish worker");
  return c;
}

// Counts one swap of the serving pointer to `epoch`.
void record_swap(std::uint64_t epoch) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& swaps = reg.counter("vc_snapshot_swaps_total", "",
                                           "Snapshot epochs published to the serving core");
  static obs::Gauge& served =
      reg.gauge("vc_epoch", "", "Epoch of the newest published index snapshot");
  swaps.inc();
  served.set(static_cast<std::int64_t>(epoch));
}

// Pre-materializes the tiered terms' index entries and witness tables, in
// the tier's sorted term order (alphabetical, not by hotness), until
// `budget_bytes` of stored payload is resident, so the epoch's first
// queries skip the lazy decode path.  Warming never changes a proof byte,
// only when the decode cost is paid.
void warm_epoch(const IndexSnapshot& snap, const WitnessTier& tier,
                std::uint64_t budget_bytes) {
  static obs::Counter& warm_terms_total = obs::MetricsRegistry::global().counter(
      "vc_warm_terms_total", "", "Terms pre-materialized by the serving warm stage");
  static obs::Counter& warm_bytes_total = obs::MetricsRegistry::global().counter(
      "vc_warm_bytes_total", "", "Stored bytes pre-materialized by the serving warm stage");
  static obs::Histogram& warm_stage = obs::MetricsRegistry::global().stage("warm_stage");
  obs::Span span(warm_stage, "warm_stage");
  std::uint64_t spent = 0;
  std::size_t warmed = 0;
  for (const std::string& term : tier.terms()) {
    if (spent >= budget_bytes) break;
    std::uint64_t bytes = snap.warm(term);
    bytes += tier.warm(term);
    spent += bytes;
    ++warmed;
    warm_bytes_total.inc(bytes);
  }
  warm_terms_total.inc(warmed);
  obs::trace_attr("warm_terms", static_cast<std::int64_t>(warmed));
  obs::trace_attr("warm_bytes", static_cast<std::int64_t>(spent));
}

}  // namespace

CloudService::CloudService(SnapshotPtr snapshot, AccumulatorContext public_ctx,
                           SigningKey cloud_key, VerifyKey owner_key, ThreadPool* pool,
                           SchemeKind scheme, std::uint64_t warm_budget_bytes)
    : ctx_(std::move(public_ctx)),
      key_(std::move(cloud_key)),
      owner_key_(std::move(owner_key)),
      scheme_(scheme),
      pool_(pool),
      warm_budget_bytes_(warm_budget_bytes) {
  if (snapshot == nullptr) throw UsageError("CloudService requires a snapshot");
  ctx_.set_pool(pool);
  current_ = build_state(snapshot, std::nullopt);
  newest_epoch_ = snapshot->epoch();
  record_swap(newest_epoch_);
  worker_ = std::thread([this] { publish_loop(); });
}

CloudService::~CloudService() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  staged_cv_.notify_all();
  worker_.join();
}

CloudService::StatePtr CloudService::build_state(
    const SnapshotPtr& snapshot, const std::optional<FixedBaseSnapshot>& fixed_base) {
  // Keep the shared fixed-base table for g as wide as this scheme's widest
  // g-exponent: every epoch's engine then reuses the same table (it is
  // shared through context copies) instead of rebuilding it.  The interval
  // schemes raise g to one interval's product at most: IntervalIndex::update
  // splits any interval above 2·interval_size members, so no chat exponent
  // and no Bézout b is wider.  The flat schemes raise it to the complement
  // of the longest posting list.
  const VerifiableIndexConfig& config = snapshot->config();
  const std::size_t widest_set = uses_interval_witnesses(scheme_)
                                     ? 2 * config.interval_size
                                     : std::max<std::size_t>(1, snapshot->max_posting_count());
  const std::size_t need = (widest_set + 1) * config.rep_bits;
  const PowerContext& power = ctx_.power();
  if (!power.has_fixed_base(ctx_.g()) || power.fixed_base_capacity_bits() < need) {
    // A persisted table for g makes the cold restart skip the squarings a
    // rebuild would spend; a table already on the context that covers
    // `need` (built for an earlier epoch, adopted, or handed in by the
    // embedder) is kept as-is, so an epoch pays no import either.  The
    // witness tier itself is already attached to the snapshot (lazy,
    // mmap-backed): no per-term witness is recomputed on reopen.
    if (fixed_base && fixed_base->base == ctx_.g() && fixed_base->capacity_bits >= need) {
      ctx_.adopt_fixed_base(*fixed_base);
    } else {
      ctx_.enable_fixed_base(need);
    }
  }
  auto engine = std::make_shared<const SearchEngine>(snapshot, ctx_, key_, pool_);
  if (auto tier = snapshot->witness_tier(); tier != nullptr && warm_budget_bytes_ > 0) {
    warm_epoch(*snapshot, *tier, warm_budget_bytes_);
  }
  return std::make_shared<const EpochState>(
      EpochState{snapshot, std::move(engine), power.fixed_base_capacity_bits()});
}

void CloudService::publish(SnapshotPtr snapshot) {
  if (snapshot == nullptr) throw UsageError("publish requires a snapshot");
  stage(std::move(snapshot), std::nullopt);
}

std::uint64_t CloudService::publish_from(const store::EpochStore& store) {
  store::OpenedEpoch opened = store.open_current();
  const std::uint64_t epoch = opened.snapshot->epoch();
  stage(std::move(opened.snapshot), std::move(opened.fixed_base));
  return epoch;
}

void CloudService::stage(SnapshotPtr snapshot, std::optional<FixedBaseSnapshot> fixed_base) {
  static obs::Histogram& enqueue_stage =
      obs::MetricsRegistry::global().stage("publish_enqueue");
  obs::Span span(enqueue_stage, "publish_enqueue");
  const std::uint64_t epoch = snapshot->epoch();
  obs::trace_attr("epoch", static_cast<std::int64_t>(epoch));
  async_publishes().inc();
  {
    std::lock_guard lock(mu_);
    // A racing publisher already staged a newer epoch: serving never goes
    // back, so this one is dropped outright.
    if (epoch < newest_epoch_) {
      publishes_dropped().inc();
      return;
    }
    // Depth-1 newest-wins staging: a worker that falls behind skips
    // straight to the newest epoch instead of replaying superseded ones.
    if (staged_.has_value()) publishes_dropped().inc();
    newest_epoch_ = epoch;
    staged_ = Staged{std::move(snapshot), std::move(fixed_base),
                     std::chrono::steady_clock::now(), ++staged_seq_};
    publish_queue_depth().set(1);  // under mu_ so it never races the drain's 0
  }
  staged_cv_.notify_one();
}

void CloudService::publish_loop() {
  for (;;) {
    Staged next;
    {
      std::unique_lock lock(mu_);
      staged_cv_.wait(lock, [&] { return stop_ || staged_.has_value(); });
      if (stop_) return;
      next = std::move(*staged_);
      staged_.reset();
      publish_queue_depth().set(0);
    }
    std::exception_ptr failure;
    try {
      StatePtr state = build_state(next.snap, next.fixed_base);
      {
        std::lock_guard lock(current_mu_);
        current_.swap(state);
      }  // `state` now holds the previous epoch, released outside the lock
      record_swap(next.snap->epoch());
      publish_lag().set(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - next.enqueued)
                            .count());
    } catch (...) {
      // The previous epoch keeps serving; waiters learn why this one is not.
      error_counter("publish_failed").inc();
      failure = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      done_seq_ = next.seq;
      publish_error_ = failure;
    }
    done_cv_.notify_all();
  }
}

void CloudService::wait_published(std::uint64_t epoch) const {
  std::unique_lock lock(mu_);
  const std::uint64_t target = staged_seq_;
  done_cv_.wait(lock, [&] {
    return done_seq_ >= target && (publish_error_ != nullptr || this->epoch() >= epoch);
  });
  if (publish_error_ != nullptr) std::rethrow_exception(publish_error_);
}

std::uint64_t CloudService::epoch() const { return current_state()->snap->epoch(); }

std::size_t CloudService::fixed_base_capacity_bits() const {
  return current_state()->fixed_base_bits;
}

SearchResponse CloudService::handle(const SignedQuery& query) {
  static obs::Histogram& handle_stage = obs::MetricsRegistry::global().stage("handle");
  obs::Span handle_span(handle_stage, "handle");
  if (!query.verify(owner_key_)) {
    error_counter("bad_signature").inc();
    throw VerifyError("query is not signed by the data owner");
  }
  // Pin one epoch's state for the whole query: every keyword's proof comes
  // from the same snapshot even if a publish lands mid-query.
  StatePtr state = current_state();
  obs::trace_attr("epoch", static_cast<std::int64_t>(state->snap->epoch()));
  SearchResponse resp;
  try {
    resp = state->engine->search(query.query, scheme_);
  } catch (const Error&) {
    error_counter("search_failed").inc();
    throw;
  }
  scheme_counter(scheme_).inc();
  served_.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

}  // namespace vc
