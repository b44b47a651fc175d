#include "support/threadpool.hpp"

#include <algorithm>

#include "support/stopwatch.hpp"

namespace vc {

namespace pool_metrics {

// Function-local statics so the registry entry exists from first use and
// call sites pay one guard load afterwards.
obs::Counter& tasks_submitted() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pool_tasks_submitted_total", "", "Tasks enqueued on any ThreadPool");
  return c;
}
obs::Counter& tasks_run() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pool_tasks_run_total", "", "Tasks executed by pool workers");
  return c;
}
obs::Gauge& queue_depth() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_pool_queue_depth", "", "Tasks currently waiting in pool queues");
  return g;
}
obs::Gauge& workers_busy() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_pool_workers_busy", "", "Pool workers currently running a task");
  return g;
}
obs::TimeCounter& busy_seconds() {
  static obs::TimeCounter& t = obs::MetricsRegistry::global().time_counter(
      "vc_pool_busy_seconds_total", "", "Cumulative wall time pool workers spent in tasks");
  return t;
}
obs::Counter& parallel_for_calls() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pool_parallel_for_total", "", "parallel_for invocations");
  return c;
}
obs::Counter& parallel_for_iterations() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pool_parallel_for_iterations_total", "", "Iterations dispatched by parallel_for");
  return c;
}

}  // namespace pool_metrics

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    pool_metrics::queue_depth().add(-1);
    pool_metrics::workers_busy().add(1);
    double task_s = 0;
    {
      ScopedTimer t(task_s);
      task();
    }
    pool_metrics::busy_seconds().add(task_s);
    pool_metrics::tasks_run().inc();
    pool_metrics::workers_busy().add(-1);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  pool_metrics::parallel_for_calls().inc();
  pool_metrics::parallel_for_iterations().inc(n);
  if (n == 1 || worker_count() == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Shared claim/completion state.  Helper tasks submitted to the pool may
  // start after the caller already finished the loop; they then claim
  // nothing and exit, so the state must outlive this frame (shared_ptr).
  struct Shared {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> done{0};
    std::size_t end;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto st = std::make_shared<Shared>();
  st->next.store(begin, std::memory_order_relaxed);
  st->end = end;
  auto drain = [st, &body, n] {
    for (;;) {
      std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= st->end) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(st->mu);
        if (!st->error) st->error = std::current_exception();
      }
      if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard lock(st->mu);
        st->cv.notify_all();
      }
    }
  };
  // The helpers reference `body`, which lives until the caller returns —
  // and the caller only returns once all n iterations are done, after which
  // late-starting helpers claim nothing and never touch `body`.  Each
  // helper reinstalls the caller's trace binding so fan-out spans parent
  // under the span that invoked parallel_for (the caller's own drain()
  // below inherits it via thread-locals).
  const std::size_t helpers = std::min(worker_count(), n - 1);
  const obs::TraceBinding binding = obs::current_trace_binding();
  for (std::size_t h = 0; h < helpers; ++h) {
    std::function<void()> task = [drain, binding] {
      obs::TraceBindGuard guard(binding);
      drain();
    };
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back(std::move(task));
    }
    pool_metrics::tasks_submitted().inc();
    pool_metrics::queue_depth().add(1);
    cv_.notify_one();
  }
  drain();
  {
    std::unique_lock lock(st->mu);
    st->cv.wait(lock, [&] { return st->done.load(std::memory_order_acquire) == n; });
    if (st->error) std::rethrow_exception(st->error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(0, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace vc
