// Explicit structured parallelism for vcsearch.
//
// The paper runs the index manager, prime manager and proof manager on
// separate cores (Fig 4) and pre-computes prime representatives with an MPI
// job (§IV).  This thread pool is the single parallel runtime behind both:
// tasks are submitted as futures, and parallel_for provides the
// static-partition loop used by the owner-side builder.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vc {

// Pool utilization metrics (one set per process; pools are few and the
// interesting signal is aggregate worker behaviour, not per-pool identity).
namespace pool_metrics {
obs::Counter& tasks_submitted();
obs::Counter& tasks_run();
obs::Gauge& queue_depth();
obs::Gauge& workers_busy();
obs::TimeCounter& busy_seconds();
obs::Counter& parallel_for_calls();
obs::Counter& parallel_for_iterations();
}  // namespace pool_metrics

class ThreadPool {
 public:
  // workers == 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  // Schedules fn; the returned future rethrows any exception from fn.
  // The submitter's active trace (if any) is captured and reinstalled
  // around fn, so spans opened inside pool tasks parent under the span
  // that scheduled them.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task, binding = obs::current_trace_binding()] {
        obs::TraceBindGuard guard(binding);
        (*task)();
      });
    }
    pool_metrics::tasks_submitted().inc();
    pool_metrics::queue_depth().add(1);
    cv_.notify_one();
    return fut;
  }

  // Runs body(i) for i in [begin, end) cooperatively: the calling thread
  // claims iterations alongside any pool workers that free up, so the call
  // makes progress even when every worker is busy.  That makes it safe to
  // invoke from *inside* a pool task (nested parallelism never deadlocks on
  // pool capacity — worst case the caller runs every iteration itself).
  // Blocks until every iteration completed; rethrows the first exception.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  // Shared process-wide pool sized to the hardware.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

// Runs body(i) for i in [0, n): over `pool` when one is given and n > 1,
// inline otherwise.  Callers' bodies fill disjoint slots, so results (and
// proof bytes) never depend on scheduling.
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body);

}  // namespace vc
