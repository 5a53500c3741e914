// QuerySession tests: admission control (reserve-on-admit, FIFO,
// queue-or-reject) and concurrent queries sharing one TaskScheduler and
// the process-wide chunk pool / memory budget with isolated per-query
// results and stats. The whole file runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cea/baselines/reference.h"
#include "cea/core/aggregation_operator.h"
#include "cea/exec/query_session.h"
#include "cea/obs/obs.h"
#include "test_util.h"

namespace cea {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

std::vector<uint64_t> MakeKeys(size_t n, uint64_t k, uint64_t salt) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = ((i + salt) % k) * 0x9E3779B97F4A7C15ull + salt;
  }
  return keys;
}

TEST(QuerySession, AdmitAndReleaseAccounting) {
  QuerySession::Options so;
  so.num_threads = 2;
  so.admission_bytes = 64 * kMiB;
  QuerySession session(so);
  EXPECT_EQ(session.capacity_bytes(), 64 * kMiB);

  QuerySession::Admission a;
  ASSERT_TRUE(session.Admit(40 * kMiB, &a).ok());
  EXPECT_TRUE(a.admitted());
  EXPECT_GT(a.query_id(), 0u);
  EXPECT_EQ(session.reserved_bytes(), 40 * kMiB);
  EXPECT_EQ(session.active(), 1);

  a.Release();
  EXPECT_FALSE(a.admitted());
  EXPECT_EQ(session.reserved_bytes(), 0u);
  EXPECT_EQ(session.active(), 0);
  EXPECT_EQ(session.admitted_total(), 1u);
}

TEST(QuerySession, NeverFittingRequestIsRejectedNotQueued) {
  QuerySession::Options so;
  so.num_threads = 1;
  so.admission_bytes = 16 * kMiB;
  QuerySession session(so);

  QuerySession::Admission a;
  Status s = session.Admit(17 * kMiB, &a);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted());
  // The message names both the request and the capacity.
  EXPECT_NE(s.message().find("17 MiB"), std::string::npos);
  EXPECT_NE(s.message().find("16 MiB"), std::string::npos);
  EXPECT_FALSE(a.admitted());
  EXPECT_EQ(session.queued(), 0u);
  EXPECT_EQ(session.rejected_total(), 1u);
}

TEST(QuerySession, FullWaitQueueRejects) {
  QuerySession::Options so;
  so.num_threads = 1;
  so.admission_bytes = 8 * kMiB;
  so.max_queued = 0;  // no waiting at all
  QuerySession session(so);

  QuerySession::Admission holder;
  ASSERT_TRUE(session.Admit(8 * kMiB, &holder).ok());
  QuerySession::Admission blocked;
  Status s = session.Admit(1 * kMiB, &blocked);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_NE(s.message().find("queue is full"), std::string::npos);
}

TEST(QuerySession, QueuedRequestProceedsAfterRelease) {
  QuerySession::Options so;
  so.num_threads = 1;
  so.admission_bytes = 8 * kMiB;
  QuerySession session(so);

  QuerySession::Admission holder;
  ASSERT_TRUE(session.Admit(8 * kMiB, &holder).ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    QuerySession::Admission a;
    ASSERT_TRUE(session.Admit(4 * kMiB, &a).ok());
    admitted.store(true);
  });
  while (session.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  holder.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(session.reserved_bytes(), 0u);
}

TEST(QuerySession, FifoHeadBlocksSmallerLaterRequests) {
  // A large query at the head of the queue must not be starved by small
  // queries that would fit right now.
  QuerySession::Options so;
  so.num_threads = 1;
  so.admission_bytes = 10 * kMiB;
  QuerySession session(so);

  QuerySession::Admission holder;
  ASSERT_TRUE(session.Admit(6 * kMiB, &holder).ok());

  std::atomic<bool> big_admitted{false};
  std::thread big([&] {
    QuerySession::Admission a;
    ASSERT_TRUE(session.Admit(10 * kMiB, &a).ok());
    big_admitted.store(true);
    a.Release();
  });
  while (session.queued() == 0) std::this_thread::yield();

  // 3 MiB would fit beside the holder (6 + 3 <= 10), but the 10 MiB query
  // is ahead in the FIFO — the small one must wait behind it.
  std::atomic<bool> small_admitted{false};
  std::thread small([&] {
    QuerySession::Admission a;
    ASSERT_TRUE(session.Admit(3 * kMiB, &a).ok());
    small_admitted.store(true);
    EXPECT_TRUE(big_admitted.load());  // strictly after the head
    a.Release();
  });
  while (session.queued() < 2) std::this_thread::yield();
  EXPECT_FALSE(small_admitted.load());

  holder.Release();  // head (10 MiB) admits, releases; then the small one
  big.join();
  small.join();
  EXPECT_TRUE(big_admitted.load());
  EXPECT_TRUE(small_admitted.load());
}

TEST(QuerySession, CancelledWaiterLeavesQueue) {
  QuerySession::Options so;
  so.num_threads = 1;
  so.admission_bytes = 4 * kMiB;
  QuerySession session(so);

  QuerySession::Admission holder;
  ASSERT_TRUE(session.Admit(4 * kMiB, &holder).ok());

  CancellationSource source;
  std::atomic<bool> done{false};
  Status waiter_status;
  std::thread waiter([&] {
    QuerySession::Admission a;
    waiter_status = session.Admit(1 * kMiB, &a, source.token());
    done.store(true);
  });
  while (session.queued() == 0) std::this_thread::yield();
  source.Cancel("gave up waiting");
  waiter.join();
  ASSERT_TRUE(done.load());
  ASSERT_FALSE(waiter_status.ok());
  EXPECT_TRUE(waiter_status.IsCancelled());
  EXPECT_EQ(session.queued(), 0u);
  holder.Release();
}

TEST(QuerySession, MaxConcurrentGatesAdmission) {
  QuerySession::Options so;
  so.num_threads = 1;
  so.max_concurrent = 2;
  so.admission_bytes = 1024 * kMiB;
  QuerySession session(so);

  QuerySession::Admission a, b;
  ASSERT_TRUE(session.Admit(1 * kMiB, &a).ok());
  ASSERT_TRUE(session.Admit(1 * kMiB, &b).ok());

  std::atomic<bool> third_admitted{false};
  std::thread third([&] {
    QuerySession::Admission c;
    ASSERT_TRUE(session.Admit(1 * kMiB, &c).ok());
    third_admitted.store(true);
  });
  while (session.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(third_admitted.load());
  a.Release();
  third.join();
  EXPECT_TRUE(third_admitted.load());
  b.Release();
}

// The tentpole integration test: N concurrent queries of different
// cardinalities share one scheduler, one chunk pool and one memory budget.
// Each must produce exactly the reference result with isolated per-query
// ExecStats. Runs under TSan in CI.
TEST(QuerySession, ConcurrentQueriesShareSchedulerAndMatchReference) {
  QuerySession::Options so;
  so.num_threads = 4;
  so.admission_bytes = 512 * kMiB;
  QuerySession session(so);

  constexpr int kQueries = 6;  // > max_concurrent would also be fine
  const size_t n = 1 << 16;
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kQueries);
  // vector<char>, not vector<bool>: clients write their slot concurrently
  // and bit-packed elements would share a word.
  std::vector<char> matched(kQueries, 0);

  for (int q = 0; q < kQueries; ++q) {
    clients.emplace_back([&, q] {
      // Mixed cardinalities: 2^4 .. 2^14 groups.
      const uint64_t k = uint64_t{1} << (4 + 2 * q);
      std::vector<uint64_t> keys = MakeKeys(n, k, /*salt=*/q * 7919);
      std::vector<uint64_t> values(n);
      for (size_t i = 0; i < n; ++i) values[i] = (i * (q + 1)) % 1000;
      InputTable input;
      input.keys = keys.data();
      input.values.push_back(values.data());
      input.num_rows = n;

      QuerySession::Admission grant;
      Status admit = session.Admit(16 * kMiB, &grant);
      if (!admit.ok()) {
        statuses[q] = admit;
        return;
      }
      AggregationOptions options;
      options.scheduler = session.scheduler();
      options.query_id = grant.query_id();
      options.table_bytes = 1 << 16;  // force recursion
      options.morsel_rows = 1 << 12;
      std::vector<AggregateSpec> specs{{AggFn::kSum, 0}, {AggFn::kCount, -1}};
      AggregationOperator op(specs, options);
      ResultTable result;
      ExecStats stats;
      statuses[q] = op.Execute(input, &result, &stats);
      if (!statuses[q].ok()) return;

      // Per-query stats isolation: every level-0 row this query counted
      // must be its own (another query's rows bleeding in would break the
      // exact row balance).
      if (stats.rows_hashed_at_level[0] + stats.rows_partitioned_at_level[0] !=
          n) {
        statuses[q] = Status::RuntimeError("stats leaked between queries");
        return;
      }
      ResultTable expect = ReferenceAggregate(input, specs);
      SortResultByKey(&result);
      matched[q] = result.keys == expect.keys &&
                   result.aggregates.size() == expect.aggregates.size() &&
                   result.aggregates[0].u64 == expect.aggregates[0].u64 &&
                   result.aggregates[1].u64 == expect.aggregates[1].u64;
    });
  }
  for (auto& t : clients) t.join();
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(statuses[q].ok()) << "query " << q << ": "
                                  << statuses[q].message();
    EXPECT_TRUE(matched[q]) << "query " << q << " result mismatch";
  }
  EXPECT_EQ(session.active(), 0);
  EXPECT_EQ(session.reserved_bytes(), 0u);
  EXPECT_EQ(session.admitted_total(), static_cast<uint64_t>(kQueries));
}

// Concurrent queries where one is cancelled mid-run: the cancelled one
// returns kCancelled, the others still match the reference (one query's
// unwinding must not disturb its neighbours on the shared pool).
TEST(QuerySession, CancellingOneQueryDoesNotDisturbOthers) {
  QuerySession::Options so;
  so.num_threads = 4;
  QuerySession session(so);

  const size_t n = 1 << 16;
  constexpr int kQueries = 4;
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kQueries);

  for (int q = 0; q < kQueries; ++q) {
    clients.emplace_back([&, q] {
      const bool victim = q == 0;
      std::vector<uint64_t> keys = MakeKeys(n, 1 << 10, q * 104729);
      InputTable input;
      input.keys = keys.data();
      input.num_rows = n;

      QuerySession::Admission grant;
      ASSERT_TRUE(session.Admit(0, &grant).ok());
      CancellationSource source;
      std::atomic<int> hook_calls{0};
      AggregationOptions options;
      options.scheduler = session.scheduler();
      options.query_id = grant.query_id();
      options.table_bytes = 1 << 16;
      options.morsel_rows = 1 << 12;
      if (victim) {
        options.cancel_token = source.token();
        options.fault_hook = [&](int) {
          if (hook_calls.fetch_add(1) == 0) source.Cancel("victim");
        };
      }
      AggregationOperator op({{AggFn::kCount, -1}}, options);
      ResultTable result;
      statuses[q] = op.Execute(input, &result);
      if (!victim && statuses[q].ok()) {
        ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
        SortResultByKey(&result);
        if (result.keys != expect.keys) {
          statuses[q] = Status::RuntimeError("neighbour result corrupted");
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_TRUE(statuses[0].IsCancelled()) << statuses[0].message();
  for (int q = 1; q < kQueries; ++q) {
    EXPECT_TRUE(statuses[q].ok()) << "query " << q << ": "
                                  << statuses[q].message();
  }
}

// A streaming query beside a one-shot query on one shared pool, both
// recording into one trace. The trace keeps one unlocked span buffer per
// worker tid, so every span must be recorded by the worker whose tid it
// carries; a span the streaming caller's thread recorded on a worker's
// tid would race with that worker's own spans. Runs under TSan in CI.
TEST(QuerySession, StreamingBesideExecuteSharesOneTrace) {
  QuerySession::Options so;
  so.num_threads = 2;
  QuerySession session(so);
  obs::ObsContext trace_only(obs::ObsContext::Options{false, true, false});

  const size_t n = 1 << 15;
  const size_t batch_rows = 4096;
  constexpr int kRounds = 8;
  std::vector<uint64_t> keys = MakeKeys(n, 1 << 10, /*salt=*/3);
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = i % 1000;
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = n;
  std::vector<AggregateSpec> specs{{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  const ResultTable expect = ReferenceAggregate(input, specs);
  auto matches = [&](ResultTable* got) {
    SortResultByKey(got);
    return got->keys == expect.keys &&
           got->aggregates[0].u64 == expect.aggregates[0].u64 &&
           got->aggregates[1].u64 == expect.aggregates[1].u64;
  };

  auto options_for = [&](uint64_t query_id) {
    AggregationOptions options;
    options.scheduler = session.scheduler();
    options.obs = &trace_only;
    options.query_id = query_id;
    options.table_bytes = 1 << 16;  // force recursion
    return options;
  };
  AggregationOperator streamer(specs, options_for(1));
  AggregationOperator executor(specs, options_for(2));

  Status stream_status;
  int stream_matched = 0;
  std::thread stream_client([&] {
    for (int round = 0; round < kRounds && stream_status.ok(); ++round) {
      stream_status = streamer.BeginStream();
      for (size_t off = 0; off < n && stream_status.ok(); off += batch_rows) {
        InputTable batch;
        batch.keys = keys.data() + off;
        batch.values.push_back(values.data() + off);
        batch.num_rows = std::min(batch_rows, n - off);
        stream_status = streamer.ConsumeBatch(batch);
      }
      ResultTable got;
      if (stream_status.ok()) stream_status = streamer.FinishStream(&got);
      if (stream_status.ok() && matches(&got)) ++stream_matched;
    }
  });
  Status execute_status;
  int execute_matched = 0;
  std::thread execute_client([&] {
    for (int round = 0; round < kRounds && execute_status.ok(); ++round) {
      ResultTable got;
      execute_status = executor.Execute(input, &got);
      if (execute_status.ok() && matches(&got)) ++execute_matched;
    }
  });
  stream_client.join();
  execute_client.join();

  ASSERT_TRUE(stream_status.ok()) << stream_status.message();
  ASSERT_TRUE(execute_status.ok()) << execute_status.message();
  EXPECT_EQ(stream_matched, kRounds);
  EXPECT_EQ(execute_matched, kRounds);
  EXPECT_GT(trace_only.trace().num_spans(), 0u);
  EXPECT_EQ(trace_only.trace().dropped(), 0u);
}

}  // namespace
}  // namespace cea
