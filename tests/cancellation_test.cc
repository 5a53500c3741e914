// Cooperative cancellation and deadline tests: token/source semantics, the
// operator's typed unwinding through the scheduler, and operator
// reusability after a cancelled or expired execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cea/baselines/reference.h"
#include "cea/core/aggregation_operator.h"
#include "cea/exec/cancellation.h"
#include "test_util.h"

namespace cea {
namespace {

std::vector<uint64_t> MakeKeys(size_t n, uint64_t k) {
  std::vector<uint64_t> keys(n);
  // Multiplicative scramble so consecutive rows do not share a radix
  // partition (forces real recursion under TinyCacheOptions).
  for (size_t i = 0; i < n; ++i) keys[i] = (i % k) * 0x9E3779B97F4A7C15ull;
  return keys;
}

TEST(CancellationToken, DefaultTokenNeverFires) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationToken, CancelIsObservedWithReason) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  source.Cancel("client went away");
  EXPECT_TRUE(token.cancelled());
  Status s = token.status();
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_NE(s.message().find("client went away"), std::string::npos);
  // Idempotent: the first reason sticks.
  source.Cancel("second reason");
  EXPECT_NE(token.status().message().find("client went away"),
            std::string::npos);
}

TEST(QueryCancellation, PreCancelledExecuteFastFails) {
  CancellationSource source;
  source.Cancel("cancelled before start");
  AggregationOptions options = TinyCacheOptions();
  options.cancel_token = source.token();
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 14, 64);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_NE(s.message().find("cancelled before start"), std::string::npos);

  // Clearing the token restores the operator; results must be exact.
  op.set_cancel_token(CancellationToken());
  ExecStats stats;
  ASSERT_TRUE(op.Execute(input, &result, &stats).ok());
  ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
  ExpectResultsMatch(&result, expect);
}

TEST(QueryCancellation, MidRunCancelUnwindsAndOperatorStaysReusable) {
  // Deterministic mid-run trigger: the first scheduled pass task fires the
  // source through the fault hook, so every worker observes cancellation
  // at its next morsel boundary.
  CancellationSource source;
  std::atomic<int> hook_calls{0};
  AggregationOptions options = TinyCacheOptions();
  options.cancel_token = source.token();
  options.fault_hook = [&](int) {
    if (hook_calls.fetch_add(1) == 0) source.Cancel("killed mid-run");
  };

  std::vector<AggregateSpec> specs{{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  AggregationOperator op(specs, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 16, 1 << 12);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 1000;
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = keys.size();

  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.message();
  EXPECT_NE(s.message().find("killed mid-run"), std::string::npos);
  EXPECT_GE(hook_calls.load(), 1);

  // Same operator, token cleared: the rerun must match the reference
  // exactly (no partial state of the cancelled run may leak in).
  op.set_cancel_token(CancellationToken());
  ExecStats stats;
  ASSERT_TRUE(op.Execute(input, &result, &stats).ok());
  ResultTable expect = ReferenceAggregate(input, specs);
  ExpectResultsMatch(&result, expect);
  EXPECT_EQ(stats.rows_hashed_at_level[0] + stats.rows_partitioned_at_level[0],
            keys.size());
}

TEST(QueryCancellation, DeadlineExpiryIsTyped) {
  AggregationOptions options = TinyCacheOptions();
  options.deadline = std::chrono::nanoseconds(1);
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 15, 1 << 10);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.message();

  // Clearing the deadline restores the operator.
  op.set_deadline(std::chrono::nanoseconds(0));
  ASSERT_TRUE(op.Execute(input, &result).ok());
  ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
  ExpectResultsMatch(&result, expect);
}

TEST(QueryCancellation, GenerousDeadlineDoesNotFire) {
  AggregationOptions options = TinyCacheOptions();
  options.deadline = std::chrono::minutes(10);
  AggregationOperator op({{AggFn::kMax, 0}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 14, 256);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = keys.size();
  ResultTable result;
  ASSERT_TRUE(op.Execute(input, &result).ok());
  ResultTable expect = ReferenceAggregate(input, {{AggFn::kMax, 0}});
  ExpectResultsMatch(&result, expect);
}

TEST(QueryCancellation, StreamingCancelBetweenBatchesClosesStream) {
  CancellationSource source;
  AggregationOptions options = TinyCacheOptions();
  options.cancel_token = source.token();
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 14, 512);
  InputTable batch;
  batch.keys = keys.data();
  batch.num_rows = keys.size();

  ASSERT_TRUE(op.BeginStream().ok());
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  source.Cancel("stream cancelled");
  Status s = op.ConsumeBatch(batch);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.message();
  // The stream is closed; further use is an argument error.
  EXPECT_FALSE(op.ConsumeBatch(batch).ok());
  ResultTable result;
  EXPECT_FALSE(op.FinishStream(&result).ok());

  // A fresh stream on the same operator (token cleared) is exact.
  op.set_cancel_token(CancellationToken());
  ASSERT_TRUE(op.BeginStream().ok());
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ASSERT_TRUE(op.FinishStream(&result).ok());
  ResultTable expect = ReferenceAggregate(batch, {{AggFn::kCount, -1}});
  ExpectResultsMatch(&result, expect);
}

TEST(QueryCancellation, StreamingCancelFailsFinishStream) {
  CancellationSource source;
  AggregationOptions options = TinyCacheOptions();
  options.cancel_token = source.token();
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 13, 4096);
  InputTable batch;
  batch.keys = keys.data();
  batch.num_rows = keys.size();

  ASSERT_TRUE(op.BeginStream().ok());
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  source.Cancel();
  Status s = op.FinishStream(nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.message();
}

TEST(QueryCancellation, StreamingDeadlineCoversWholeStream) {
  // The budget arms at BeginStream; a batch consumed after it expired
  // returns kDeadlineExceeded.
  AggregationOptions options = TinyCacheOptions();
  options.deadline = std::chrono::microseconds(200);
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 12, 64);
  InputTable batch;
  batch.keys = keys.data();
  batch.num_rows = keys.size();

  ASSERT_TRUE(op.BeginStream().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status s = op.ConsumeBatch(batch);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.message();
}

TEST(QueryCancellation, ExactFallbackPathObservesCancellation) {
  // PartitionAlways(1) routes everything through AggregateExact; a
  // pre-fired token must unwind that path with the typed status too.
  CancellationSource source;
  std::atomic<int> hook_calls{0};
  AggregationOptions options = TinyCacheOptions();
  options.policy = AggregationOptions::PolicyKind::kPartitionAlways;
  options.partition_passes = 1;
  options.cancel_token = source.token();
  options.fault_hook = [&](int) {
    if (hook_calls.fetch_add(1) == 0) source.Cancel("exact cancelled");
  };
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  std::vector<uint64_t> keys = MakeKeys(1 << 15, 1 << 10);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.message();

  // The hook stays armed but only cancels once; the rerun must be exact.
  op.set_cancel_token(CancellationToken());
  ASSERT_TRUE(op.Execute(input, &result).ok());
  ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
  ExpectResultsMatch(&result, expect);
}

}  // namespace
}  // namespace cea
