// The cloud role (Fig 1 right): the serving core.
//
// Wraps the search engine with the signed-message protocol: it rejects
// queries that are not validly signed by the owner (so it can later
// disprove forged-query accusations) and signs every response.
//
// Serving is organized around immutable, epoch-numbered IndexSnapshots.
// The service holds one shared_ptr to the current epoch's serving state,
// behind a mutex held only to copy or replace the pointer; a query copies
// it once and proves every keyword against that one snapshot, so queries
// in flight keep the epoch they started on while new queries see the new
// one — concurrent owner updates never race with proof generation.
// Responses carry the serving snapshot's epoch in the signed payload.
// (libstdc++'s std::atomic<std::shared_ptr> unlocks with a relaxed store
// in load(), which ThreadSanitizer reports as a race against store().)
//
// Publication is asynchronous: publish() stages the epoch into a depth-1
// newest-wins slot and returns; one publish worker builds the serving
// state (including the witness warm stage for the epoch's tiered terms)
// and swaps the pointer.  An epoch superseded while still staged is
// dropped instead of queued, and so is one older than an epoch already
// staged.
// wait_published() blocks for callers that need the swap.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "protocol/messages.hpp"

namespace vc {

namespace store {
class EpochStore;
}  // namespace store

namespace advtest {
struct CloudAccess;
}  // namespace advtest

class CloudService {
 public:
  // Builds the serving state for `snapshot` before returning.  A non-zero
  // `warm_budget_bytes` pre-materializes the tiered terms of every epoch
  // served — this boot snapshot and each published one, before its swap —
  // in the tier's sorted term order until that many stored bytes are
  // resident; 0 disables the warm stage.
  CloudService(SnapshotPtr snapshot, AccumulatorContext public_ctx,
               SigningKey cloud_key, VerifyKey owner_key, ThreadPool* pool = nullptr,
               SchemeKind scheme = SchemeKind::kHybrid, std::uint64_t warm_budget_bytes = 0);

  ~CloudService();  // stops and joins the publish worker
  CloudService(const CloudService&) = delete;
  CloudService& operator=(const CloudService&) = delete;

  // Stages the given snapshot (a new epoch) for the publish worker and
  // returns immediately.  Safe to call while queries are being served and
  // from several threads at once: an epoch older than the newest one
  // already staged is dropped, so the served epoch never decreases.
  void publish(SnapshotPtr snapshot);

  // Opens the store's CURRENT epoch (mmap-backed, lazily materialized) and
  // stages it together with the epoch's persisted fixed-base table, which
  // the publish worker adopts when the serving table for g does not already
  // cover the epoch — the cold-restart entry point.  A damaged
  // witness tier stages the epoch untiered; any other damage, or a missing
  // epoch, throws the store's typed errors.  Returns the staged epoch
  // number.
  std::uint64_t publish_from(const store::EpochStore& store);

  // Blocks until every publish staged before the call has been swapped in
  // (or superseded by a newer one that has) and the served epoch is at
  // least `epoch`.  When the worker's most recent publish failed (the
  // previous epoch keeps serving), rethrows that failure instead.
  void wait_published(std::uint64_t epoch) const;

  // Throws VerifyError if the query signature is invalid.
  [[nodiscard]] SearchResponse handle(const SignedQuery& query);

  [[nodiscard]] const VerifyKey& verify_key() const { return key_.verify_key(); }
  [[nodiscard]] std::uint64_t queries_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  // Epoch of the snapshot currently served.
  [[nodiscard]] std::uint64_t epoch() const;
  // Exponent capacity in bits of the fixed-base table for g the current
  // epoch proves with: (2·interval_size + 1)·rep_bits for the interval
  // schemes, (longest posting list + 1)·rep_bits for the flat ones, or more
  // when a wider table was already on the context.
  [[nodiscard]] std::size_t fixed_base_capacity_bits() const;

 private:
  // Narrow test-only hook: the adversarial soundness harness (src/advtest)
  // wraps a live CloudService — reusing its engine and response-signing key
  // — to emit semantically forged responses that are still validly signed
  // by the cloud, exactly what a malicious operator would produce.
  friend struct advtest::CloudAccess;

  // One epoch's serving state: the snapshot, the engine (prover) built
  // over it and the capacity of the g-table it proves with.  Immutable once
  // published.
  struct EpochState {
    SnapshotPtr snap;
    std::shared_ptr<const SearchEngine> engine;
    std::size_t fixed_base_bits = 0;
  };
  using StatePtr = std::shared_ptr<const EpochState>;

  // One epoch waiting in the staging slot.  `fixed_base` is the table the
  // epoch was persisted with (publish_from only).
  struct Staged {
    SnapshotPtr snap;
    std::optional<FixedBaseSnapshot> fixed_base;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] StatePtr current_state() const {
    std::lock_guard lock(current_mu_);
    return current_;
  }

  // Fixed-base adoption/sizing, engine construction and the warm stage for
  // one epoch.  Runs in the constructor before the worker starts and on the
  // worker after that, so one thread at a time owns ctx_.
  [[nodiscard]] StatePtr build_state(const SnapshotPtr& snapshot,
                                     const std::optional<FixedBaseSnapshot>& fixed_base);
  void stage(SnapshotPtr snapshot, std::optional<FixedBaseSnapshot> fixed_base);
  void publish_loop();

  AccumulatorContext ctx_;
  SigningKey key_;
  VerifyKey owner_key_;
  SchemeKind scheme_;
  ThreadPool* pool_;
  std::uint64_t warm_budget_bytes_;
  std::atomic<std::uint64_t> served_{0};
  mutable std::mutex current_mu_;
  StatePtr current_;  // guarded by current_mu_

  // Publish pipeline: the staging slot, the sequence numbers that let
  // wait_published() tell staged from finished, and the worker.
  mutable std::mutex mu_;
  std::condition_variable staged_cv_;        // wakes the worker
  mutable std::condition_variable done_cv_;  // wakes wait_published
  std::optional<Staged> staged_;
  std::uint64_t newest_epoch_ = 0;  // newest epoch ever staged (or booted)
  std::uint64_t staged_seq_ = 0;    // last sequence number handed out
  std::uint64_t done_seq_ = 0;      // sequence number the worker last finished
  std::exception_ptr publish_error_;  // why that publish failed, if it did
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace vc
