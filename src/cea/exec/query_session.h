// Concurrent-query admission control over one shared worker pool.
//
// The operator alone is single-query: one Execute owns its scheduler and
// the process-wide ChunkPool/MemoryBudget. QuerySession is the serving
// layer above it: N client threads admit their queries against a shared
// reservation capacity, run them on one shared TaskScheduler (per-query
// isolation comes from TaskGroup accounting inside the scheduler and from
// each query using its own AggregationOperator, hence its own worker
// resources and ExecStats), and release their reservation when done.
//
// Admission protocol (reserve-on-admit, FIFO):
//  * Admit(bytes) reserves `bytes` against the session capacity and takes
//    a concurrency slot. The reservation is the query's declared run-store
//    footprint; the hard MemoryBudget limit still polices actual
//    allocations underneath, so a lying estimate degrades fairness, not
//    safety.
//  * A request that cannot fit *now* queues FIFO — strictly: a large query
//    at the head is not overtaken by small ones admitted behind it.
//  * A request that can *never* fit (bytes > capacity), or that arrives
//    when the wait queue is full, is rejected immediately with a
//    descriptive kResourceExhausted Status — reject, don't hang.
//  * A queued waiter whose CancellationToken fires gives up its place and
//    returns the token's status.
//
// Usage:
//   QuerySession session({.num_threads = 8, .admission_bytes = 1 << 30});
//   QuerySession::Admission grant;
//   Status s = session.Admit(estimated_bytes, &grant, token);
//   if (!s.ok()) return s;                  // rejected / cancelled
//   AggregationOptions opt;
//   opt.scheduler = session.scheduler();    // share the pool
//   opt.query_id = grant.query_id();        // tags trace spans
//   AggregationOperator op(specs, opt);
//   ... op.Execute(...) ...                 // grant releases on scope exit

#ifndef CEA_EXEC_QUERY_SESSION_H_
#define CEA_EXEC_QUERY_SESSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "cea/common/status.h"
#include "cea/exec/cancellation.h"
#include "cea/exec/task_scheduler.h"

namespace cea {

class QuerySession {
 public:
  struct Options {
    // Shared worker pool size; 0 = all hardware threads.
    int num_threads = 0;
    // Reservation capacity for Admit(). 0 adopts the process-wide
    // MemoryBudget limit at construction; if that is unlimited too,
    // admission is gated by concurrency/queue limits only.
    size_t admission_bytes = 0;
    // Maximum concurrently admitted queries; 0 = unbounded.
    int max_concurrent = 0;
    // Waiters beyond this are rejected instead of queued.
    size_t max_queued = 16;
    // Fraction of the declared footprint a spillable query reserves.
    // A query that can spill does not need its worst case resident — it
    // degrades to disk under pressure — so reserving the full estimate
    // would idle capacity other queries could use. Must be in (0, 1].
    double spillable_fraction = 0.25;
  };

  QuerySession();  // all-default Options
  explicit QuerySession(const Options& options);
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // The shared pool. Outlives every operator constructed against it as
  // long as the session outlives them.
  TaskScheduler* scheduler() { return scheduler_.get(); }
  int num_threads() const { return scheduler_->num_threads(); }
  size_t capacity_bytes() const { return capacity_; }

  // RAII admission grant: releases the reservation and the concurrency
  // slot on destruction (or explicit Release()). Move-only.
  class Admission {
   public:
    Admission() = default;
    ~Admission() { Release(); }
    Admission(Admission&& other) noexcept { *this = std::move(other); }
    Admission& operator=(Admission&& other) noexcept {
      if (this != &other) {
        Release();
        session_ = other.session_;
        bytes_ = other.bytes_;
        query_id_ = other.query_id_;
        queue_ns_ = other.queue_ns_;
        other.session_ = nullptr;
      }
      return *this;
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;

    bool admitted() const { return session_ != nullptr; }
    uint64_t query_id() const { return query_id_; }
    size_t reserved_bytes() const { return bytes_; }
    // Wall time this query spent waiting for admission (entry to grant);
    // 0 when it was admitted without queueing. Survives Release() so the
    // caller can report it after the query finished.
    uint64_t queue_ns() const { return queue_ns_; }
    void Release();

   private:
    friend class QuerySession;
    QuerySession* session_ = nullptr;
    size_t bytes_ = 0;
    uint64_t query_id_ = 0;
    uint64_t queue_ns_ = 0;
  };

  // Blocks (FIFO) until `bytes` fit under the capacity and a concurrency
  // slot is free, then fills *grant. Returns kResourceExhausted without
  // queueing when the request can never fit or the wait queue is full;
  // returns the token's kCancelled status when a queued caller is
  // cancelled while waiting. A token carries no deadline, so a queued
  // caller is never timed out here: the query's deadline
  // (AggregationOptions::deadline) starts with its execution. A
  // `spillable` query (one running with a spill directory configured)
  // reserves only `options.spillable_fraction * bytes` — it sheds the rest
  // to disk under pressure instead of holding capacity hostage to its
  // worst case.
  Status Admit(size_t bytes, Admission* grant,
               CancellationToken token = CancellationToken(),
               bool spillable = false);

  // Introspection (racy snapshots, intended for tests and telemetry).
  int active() const;
  size_t queued() const;
  size_t reserved_bytes() const;
  uint64_t admitted_total() const;
  uint64_t rejected_total() const;

 private:
  void Release(size_t bytes);
  // Capacity/concurrency test for the head of the FIFO; mutex_ held.
  bool Fits(size_t bytes) const {
    if (options_.max_concurrent > 0 && active_ >= options_.max_concurrent) {
      return false;
    }
    return capacity_ == 0 || reserved_ + bytes <= capacity_;
  }

  Options options_;
  size_t capacity_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<uint64_t> fifo_;  // waiting tickets, front served first
  uint64_t next_ticket_ = 0;
  size_t reserved_ = 0;
  int active_ = 0;
  uint64_t next_query_id_ = 0;
  uint64_t admitted_total_ = 0;
  uint64_t rejected_total_ = 0;

  std::unique_ptr<TaskScheduler> scheduler_;
};

}  // namespace cea

#endif  // CEA_EXEC_QUERY_SESSION_H_
