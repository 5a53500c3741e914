// Tests of the streaming (push-based) operator interface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "test_util.h"

namespace cea {
namespace {

// Streams `keys`/`values` into the operator in `batch_rows`-row batches
// and expects the same result as the one-shot reference.
void StreamAndCompare(const std::vector<uint64_t>& keys,
                      const std::vector<uint64_t>& values, size_t batch_rows,
                      AggregationOptions options) {
  std::vector<AggregateSpec> specs = {{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  AggregationOperator op(specs, options);
  ASSERT_TRUE(op.BeginStream(1).ok());
  for (size_t off = 0; off < keys.size(); off += batch_rows) {
    size_t n = std::min(batch_rows, keys.size() - off);
    // Copy into scratch buffers that die after the call: ConsumeBatch
    // must not retain pointers.
    std::vector<uint64_t> kbuf(keys.begin() + off, keys.begin() + off + n);
    std::vector<uint64_t> vbuf(values.begin() + off, values.begin() + off + n);
    InputTable batch;
    batch.keys = kbuf.data();
    batch.values = {vbuf.data()};
    batch.num_rows = n;
    ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  }
  ResultTable got;
  ASSERT_TRUE(op.FinishStream(&got).ok());

  InputTable whole;
  whole.keys = keys.data();
  whole.values = {values.data()};
  whole.num_rows = keys.size();
  ResultTable expect = ReferenceAggregate(whole, specs);
  SortResultByKey(&got);
  ASSERT_EQ(got.keys, expect.keys);
  ASSERT_EQ(got.aggregates[0].u64, expect.aggregates[0].u64);
  ASSERT_EQ(got.aggregates[1].u64, expect.aggregates[1].u64);
}

TEST(Streaming, VariousBatchSizes) {
  GenParams gp;
  gp.n = 50000;
  gp.k = 3000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::vector<uint64_t> values = GenerateValues(gp.n, 2);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{4096}, size_t{50000},
                       size_t{100000}}) {
    StreamAndCompare(keys, values, batch, TinyCacheOptions(2));
  }
}

TEST(Streaming, LargeKForcesRecursionAfterFinish) {
  GenParams gp;
  gp.n = 80000;
  gp.k = 80000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::vector<uint64_t> values = GenerateValues(gp.n, 3);
  StreamAndCompare(keys, values, 8192, TinyCacheOptions(4));
}

TEST(Streaming, BatchBelowTheMorselFloorStaysOnOneWorker) {
  // A batch below one morsel (morsel_rows) is one morsel on one worker,
  // even at 4 threads: that worker hashes every row, and with a table
  // large enough for K its table is the final result (the sole-hasher
  // shortcut), so nothing recurses.
  GenParams gp;
  gp.n = 60000;
  gp.k = 64;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  AggregationOptions options;
  options.num_threads = 4;
  options.table_bytes = 4 << 20;
  ASSERT_LT(gp.n, options.morsel_rows);
  std::vector<AggregateSpec> specs = {{AggFn::kCount, -1}};
  AggregationOperator op(specs, options);
  InputTable batch;
  batch.keys = keys.data();
  batch.num_rows = keys.size();
  ASSERT_TRUE(op.BeginStream().ok());
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ResultTable got;
  ExecStats stats;
  ASSERT_TRUE(op.FinishStream(&got, &stats).ok());
  EXPECT_EQ(stats.max_level, 0);
  EXPECT_EQ(stats.final_hash_passes, 1u);
  EXPECT_EQ(stats.tables_flushed, 0u);
  ExpectResultsMatch(&got, ReferenceAggregate(batch, specs));
}

TEST(Streaming, SmallBatchesShareOneContext) {
  // Batches below one morsel each run on whichever worker takes them, but
  // all go into one context: it sees every row of the stream, so with a
  // table large enough for K the stream still finishes in one pass.
  GenParams gp;
  gp.n = 16 * 4096;
  gp.k = 5000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  AggregationOptions options;
  options.num_threads = 4;
  options.table_bytes = 4 << 20;
  std::vector<AggregateSpec> specs = {{AggFn::kCount, -1}};
  AggregationOperator op(specs, options);
  ASSERT_TRUE(op.BeginStream().ok());
  for (size_t off = 0; off < keys.size(); off += 4096) {
    InputTable batch;
    batch.keys = keys.data() + off;
    batch.num_rows = 4096;
    ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  }
  ResultTable got;
  ExecStats stats;
  ASSERT_TRUE(op.FinishStream(&got, &stats).ok());
  EXPECT_EQ(stats.max_level, 0);
  EXPECT_EQ(stats.final_hash_passes, 1u);
  EXPECT_EQ(stats.tables_flushed, 0u);
  InputTable whole;
  whole.keys = keys.data();
  whole.num_rows = keys.size();
  ExpectResultsMatch(&got, ReferenceAggregate(whole, specs));
}

TEST(Streaming, EmptyStream) {
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions());
  ASSERT_TRUE(op.BeginStream().ok());
  ResultTable result;
  ASSERT_TRUE(op.FinishStream(&result).ok());
  EXPECT_EQ(result.num_groups(), 0u);
}

TEST(Streaming, CompositeKeys) {
  const size_t n = 20000;
  Column k0(n), k1(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    k0[i] = rng.NextBounded(40);
    k1[i] = rng.NextBounded(40);
  }
  std::vector<AggregateSpec> specs = {{AggFn::kCount, -1}};
  AggregationOperator op(specs, TinyCacheOptions(2));
  ASSERT_TRUE(op.BeginStream(2).ok());
  for (size_t off = 0; off < n; off += 3000) {
    size_t len = std::min<size_t>(3000, n - off);
    InputTable batch;
    batch.keys = k0.data() + off;
    batch.extra_keys = {k1.data() + off};
    batch.num_rows = len;
    ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  }
  ResultTable got;
  ASSERT_TRUE(op.FinishStream(&got).ok());

  InputTable whole = InputTable::FromKeyColumns({&k0, &k1}, {});
  ResultTable expect = ReferenceAggregate(whole, specs);
  SortResultByKey(&got);
  ASSERT_EQ(got.keys, expect.keys);
  ASSERT_EQ(got.extra_keys[0], expect.extra_keys[0]);
  ASSERT_EQ(got.aggregates[0].u64, expect.aggregates[0].u64);
}

TEST(Streaming, StateMachineErrors) {
  AggregationOperator op({}, TinyCacheOptions());
  InputTable batch;
  ResultTable result;
  // Consume/Finish without Begin.
  EXPECT_FALSE(op.ConsumeBatch(batch).ok());
  EXPECT_FALSE(op.FinishStream(&result).ok());
  // Double Begin.
  ASSERT_TRUE(op.BeginStream().ok());
  EXPECT_FALSE(op.BeginStream().ok());
  // Execute while streaming.
  EXPECT_FALSE(op.Execute(batch, &result).ok());
  // Mismatched key width.
  Column k0 = {1};
  Column k1 = {2};
  InputTable two_keys = InputTable::FromKeyColumns({&k0, &k1}, {});
  EXPECT_FALSE(op.ConsumeBatch(two_keys).ok());
  ASSERT_TRUE(op.FinishStream(&result).ok());
}

TEST(Streaming, ReusableAfterFinish) {
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(op.BeginStream().ok());
    Column keys = {1, 2, 2, 3};
    InputTable batch;
    batch.keys = keys.data();
    batch.num_rows = keys.size();
    ASSERT_TRUE(op.ConsumeBatch(batch).ok());
    ResultTable result;
    ASSERT_TRUE(op.FinishStream(&result).ok());
    EXPECT_EQ(result.num_groups(), 3u) << "round " << round;
  }
}

TEST(Streaming, MixesWithExecute) {
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions());
  Column keys = {5, 5, 6};
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  ResultTable r1;
  ASSERT_TRUE(op.Execute(input, &r1).ok());
  EXPECT_EQ(r1.num_groups(), 2u);

  ASSERT_TRUE(op.BeginStream().ok());
  ASSERT_TRUE(op.ConsumeBatch(input).ok());
  ResultTable r2;
  ASSERT_TRUE(op.FinishStream(&r2).ok());
  EXPECT_EQ(r2.num_groups(), 2u);
}

TEST(Streaming, InjectedFaultInFinishPropagatesAndStreamRecovers) {
  // High cardinality with a tiny table makes FinishStream recurse into
  // scheduled bucket tasks; a fault injected at level >= 1 must surface
  // as a Status (not terminate / hang), and a fresh stream on the same
  // operator must then work.
  GenParams gp;
  gp.n = 50000;
  gp.k = 50000;
  Column keys = GenerateKeys(gp);
  Column values = GenerateValues(gp.n, 31);

  auto armed = std::make_shared<std::atomic<bool>>(true);
  AggregationOptions options = TinyCacheOptions(2, /*table_bytes=*/1 << 14);
  options.fault_hook = [armed](int level) {
    if (armed->load() && level >= 1) {
      throw std::runtime_error("injected finish failure");
    }
  };
  AggregationOperator op({{AggFn::kSum, 0}}, options);

  ASSERT_TRUE(op.BeginStream(1).ok());
  InputTable batch;
  batch.keys = keys.data();
  batch.values = {values.data()};
  batch.num_rows = keys.size();
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ResultTable result;
  Status s = op.FinishStream(&result);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected finish failure"), std::string::npos);

  // The operator recovered: stream again, disarm the hook, and compare.
  armed->store(false);
  StreamAndCompare(keys, values, /*batch_rows=*/7777, options);
}

TEST(Streaming, ExecuteWorksAfterFailedStream) {
  // A stream that fails in finalization tears down via AbortStream; the
  // one-shot interface on the same operator must then work and match the
  // reference (no partial stream state leaks into Execute).
  GenParams gp;
  gp.n = 50000;
  gp.k = 50000;
  Column keys = GenerateKeys(gp);
  Column values = GenerateValues(gp.n, 33);

  auto armed = std::make_shared<std::atomic<bool>>(true);
  AggregationOptions options = TinyCacheOptions(2, /*table_bytes=*/1 << 14);
  options.fault_hook = [armed](int level) {
    if (armed->load() && level >= 1) {
      throw std::runtime_error("injected finish failure");
    }
  };
  std::vector<AggregateSpec> specs = {{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  AggregationOperator op(specs, options);

  ASSERT_TRUE(op.BeginStream(1).ok());
  InputTable batch;
  batch.keys = keys.data();
  batch.values = {values.data()};
  batch.num_rows = keys.size();
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ResultTable result;
  ASSERT_FALSE(op.FinishStream(&result).ok());

  armed->store(false);
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = keys.size();
  ResultTable got;
  ASSERT_TRUE(op.Execute(input, &got).ok());
  ResultTable expect = ReferenceAggregate(input, specs);
  SortResultByKey(&got);
  ASSERT_EQ(got.keys, expect.keys);
  ASSERT_EQ(got.aggregates[0].u64, expect.aggregates[0].u64);
  ASSERT_EQ(got.aggregates[1].u64, expect.aggregates[1].u64);
}

}  // namespace
}  // namespace cea
