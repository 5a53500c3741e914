// End-to-end tests of AggregationOperator against the scalar reference,
// across distributions, cardinalities, thread counts and policies.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "cea/hash/murmur.h"
#include "cea/hash/radix.h"
#include "test_util.h"

namespace cea {
namespace {

// ---------------------------------------------------------------------------
// Parameterized sweep: distribution x K x threads x policy, DISTINCT+COUNT.

using SweepParam =
    std::tuple<Distribution, uint64_t /*k*/, int /*threads*/,
               AggregationOptions::PolicyKind>;

class AggregationSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AggregationSweep, MatchesReference) {
  auto [dist, k, threads, policy] = GetParam();
  GenParams gp;
  gp.n = 60000;
  gp.k = k;
  gp.dist = dist;
  gp.seed = 1234 + k;
  std::vector<uint64_t> keys = GenerateKeys(gp);

  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  AggregationOptions options = TinyCacheOptions(threads);
  options.policy = policy;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, options);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  auto [dist, k, threads, policy] = info.param;
  std::string name = DistributionName(dist);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += "_k" + std::to_string(k) + "_t" + std::to_string(threads);
  switch (policy) {
    case AggregationOptions::PolicyKind::kAdaptive: name += "_adaptive"; break;
    case AggregationOptions::PolicyKind::kHashingOnly: name += "_hash"; break;
    case AggregationOptions::PolicyKind::kPartitionAlways: name += "_part"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationSweep,
    ::testing::Combine(
        ::testing::ValuesIn(AllDistributions()),
        ::testing::Values(uint64_t{1}, uint64_t{50}, uint64_t{5000},
                          uint64_t{60000}),
        ::testing::Values(1, 4),
        ::testing::Values(AggregationOptions::PolicyKind::kAdaptive,
                          AggregationOptions::PolicyKind::kHashingOnly,
                          AggregationOptions::PolicyKind::kPartitionAlways)),
    SweepName);

// ---------------------------------------------------------------------------
// Aggregate function correctness.

class AggFunctionTest : public ::testing::TestWithParam<AggFn> {};

TEST_P(AggFunctionTest, SingleFunctionMatchesReference) {
  AggFn fn = GetParam();
  GenParams gp;
  gp.n = 40000;
  gp.k = 700;
  gp.dist = Distribution::kZipf;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::vector<uint64_t> values = GenerateValues(gp.n, 99);

  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = gp.n;

  ExpectMatchesReference({{fn, NeedsInput(fn) ? 0 : -1}}, input,
                         TinyCacheOptions());
}

INSTANTIATE_TEST_SUITE_P(Functions, AggFunctionTest,
                         ::testing::Values(AggFn::kCount, AggFn::kSum,
                                           AggFn::kMin, AggFn::kMax,
                                           AggFn::kAvg),
                         [](const ::testing::TestParamInfo<AggFn>& info) {
                           return AggFnName(info.param);
                         });

TEST(Aggregation, ManyColumnsAndFunctions) {
  GenParams gp;
  gp.n = 50000;
  gp.k = 3000;
  gp.dist = Distribution::kSelfSimilar;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::vector<uint64_t> v0 = GenerateValues(gp.n, 1);
  std::vector<uint64_t> v1 = GenerateValues(gp.n, 2);
  std::vector<uint64_t> v2 = GenerateValues(gp.n, 3);

  InputTable input;
  input.keys = keys.data();
  input.values = {v0.data(), v1.data(), v2.data()};
  input.num_rows = gp.n;

  ExpectMatchesReference({{AggFn::kSum, 0},
                          {AggFn::kMin, 1},
                          {AggFn::kMax, 1},
                          {AggFn::kAvg, 2},
                          {AggFn::kCount, -1},
                          {AggFn::kSum, 2}},
                         input, TinyCacheOptions(3));
}

TEST(Aggregation, PureDistinctNoAggregates) {
  GenParams gp;
  gp.n = 80000;
  gp.k = 20000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = gp.n;
  ExpectMatchesReference({}, input, TinyCacheOptions(2));
}

// ---------------------------------------------------------------------------
// Edge cases and failure injection.

TEST(Aggregation, EmptyInput) {
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions());
  InputTable input;  // zero rows
  ResultTable result;
  ASSERT_TRUE(op.Execute(input, &result).ok());
  EXPECT_EQ(result.num_groups(), 0u);
  ASSERT_EQ(result.aggregates.size(), 1u);
  EXPECT_TRUE(result.aggregates[0].u64.empty());
}

TEST(Aggregation, SingleRow) {
  std::vector<uint64_t> keys = {42};
  std::vector<uint64_t> values = {7};
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = 1;
  ExpectMatchesReference({{AggFn::kSum, 0}}, input, TinyCacheOptions());
}

TEST(Aggregation, AllRowsSameKey) {
  std::vector<uint64_t> keys(30000, 5);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, TinyCacheOptions(4));
}

TEST(Aggregation, AllKeysDistinct) {
  std::vector<uint64_t> keys(50000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 2654435761u + 1;
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, TinyCacheOptions(2));
}

TEST(Aggregation, NonPowerOfTwoSizes) {
  for (size_t n : {1u, 7u, 4095u, 4097u, 65537u}) {
    std::vector<uint64_t> keys(n);
    Rng rng(n);
    for (auto& k : keys) k = rng.NextBounded(997);
    InputTable input;
    input.keys = keys.data();
    input.num_rows = n;
    ExpectMatchesReference({{AggFn::kCount, -1}}, input, TinyCacheOptions(2));
  }
}

TEST(Aggregation, ExtremeKeyValues) {
  std::vector<uint64_t> keys = {0, ~uint64_t{0}, 1, 0, ~uint64_t{0},
                                uint64_t{1} << 63, 1};
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, TinyCacheOptions());
}

// Computes the modular inverse of MurmurHash64 to construct adversarial
// keys whose hashes share a common prefix — driving the recursion to the
// deepest radix level.
uint64_t Inv64(uint64_t a) {
  uint64_t x = a;  // Newton iteration doubles correct bits each round
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

uint64_t MurmurHash64Inverse(uint64_t h) {
  const uint64_t m = 0xc6a4a7935bd1e995ULL;
  const uint64_t m_inv = Inv64(m);
  const uint64_t hconst = 0 ^ (8 * m);
  auto unshift = [](uint64_t v) { return v ^ (v >> 47); };
  uint64_t t = unshift(h);
  t *= m_inv;
  t = unshift(t);
  t *= m_inv;
  uint64_t k = t ^ hconst;
  k *= m_inv;
  k = unshift(k);
  k *= m_inv;
  return k;
}

TEST(Aggregation, AdversarialHashPrefixCollisions) {
  // 3000 distinct keys whose hashes agree on the top 48 bits: every
  // partitioning level up to 5 puts them into the same bucket.
  ASSERT_EQ(MurmurHash64(MurmurHash64Inverse(0x123456789abcdef0ULL)),
            0x123456789abcdef0ULL);
  std::vector<uint64_t> keys;
  const uint64_t prefix = 0xabcdef123456ULL << 16;
  for (uint64_t i = 0; i < 3000; ++i) {
    keys.push_back(MurmurHash64Inverse(prefix | i));
  }
  // Duplicate some rows so aggregation happens too.
  for (int r = 0; r < 3; ++r) {
    for (uint64_t i = 0; i < 500; ++i) keys.push_back(keys[i]);
  }
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ExecStats stats;
  AggregationOptions options = TinyCacheOptions(2, /*table_bytes=*/1 << 14);
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, options, &stats);
  EXPECT_GE(stats.max_level, 4);
}

TEST(Aggregation, InvalidSpecReturnsStatus) {
  AggregationOperator op({{AggFn::kSum, 3}}, TinyCacheOptions());
  std::vector<uint64_t> keys = {1, 2};
  std::vector<uint64_t> values = {1, 2};
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};  // only column 0 exists
  input.num_rows = 2;
  ResultTable result;
  Status s = op.Execute(input, &result);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos);
}

TEST(Aggregation, NegativeColumnForValueFunctionIsInvalid) {
  AggregationOperator op({{AggFn::kMin, -1}}, TinyCacheOptions());
  std::vector<uint64_t> keys = {1};
  InputTable input;
  input.keys = keys.data();
  input.num_rows = 1;
  ResultTable result;
  EXPECT_FALSE(op.Execute(input, &result).ok());
}

TEST(Aggregation, OperatorIsReusable) {
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions(2));
  for (int round = 0; round < 3; ++round) {
    GenParams gp;
    gp.n = 20000;
    gp.k = 100 << round;
    gp.seed = round;
    std::vector<uint64_t> keys = GenerateKeys(gp);
    InputTable input;
    input.keys = keys.data();
    input.num_rows = keys.size();
    ResultTable result;
    ASSERT_TRUE(op.Execute(input, &result).ok());
    ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
    SortResultByKey(&result);
    ASSERT_EQ(result.keys, expect.keys) << "round " << round;
    ASSERT_EQ(result.aggregates[0].u64, expect.aggregates[0].u64);
  }
}

TEST(Aggregation, LargeCacheSinglePass) {
  // With a realistic table size and small K everything finishes in one
  // in-cache pass. One worker keeps the level count deterministic: with
  // several workers each produces a leftover run, which legitimately
  // costs one more (tiny) merge level (Section 3.2).
  GenParams gp;
  gp.n = 100000;
  gp.k = 256;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  AggregationOptions options;
  options.num_threads = 1;
  options.table_bytes = 4 << 20;
  ExecStats stats;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, options, &stats);
  EXPECT_EQ(stats.tables_flushed, 0u);
  EXPECT_EQ(stats.rows_partitioned, 0u);
  EXPECT_EQ(stats.max_level, 0);
}

TEST(Aggregation, InputBelowOneMorselFinishesInOnePassOnManyWorkers) {
  // An input below one morsel is one morsel on one worker even at 4
  // threads, as a small bucket is: that worker hashes every row, and with
  // a table large enough for K its table is the final result (the
  // sole-hasher shortcut). Split across the workers, each would flush its
  // partial table into 256 runs for a needless level-1 recursion.
  GenParams gp;
  gp.n = 50000;
  gp.k = 256;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  AggregationOptions options;
  options.num_threads = 4;
  options.table_bytes = 4 << 20;
  ASSERT_LT(gp.n, options.morsel_rows);
  ExecStats stats;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, options, &stats);
  EXPECT_EQ(stats.max_level, 0);
  EXPECT_EQ(stats.final_hash_passes, 1u);
  EXPECT_EQ(stats.tables_flushed, 0u);
}

TEST(Aggregation, KHintDoesNotChangeResults) {
  GenParams gp;
  gp.n = 30000;
  gp.k = 10000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  AggregationOptions options = TinyCacheOptions(2);
  options.k_hint = 10000;
  options.policy = AggregationOptions::PolicyKind::kPartitionAlways;
  options.partition_passes = 2;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, options);
}

TEST(Aggregation, PartitionAlwaysDepths) {
  GenParams gp;
  gp.n = 40000;
  gp.k = 15000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  for (int passes = 1; passes <= 3; ++passes) {
    AggregationOptions options = TinyCacheOptions(2);
    options.policy = AggregationOptions::PolicyKind::kPartitionAlways;
    options.partition_passes = passes;
    ExpectMatchesReference({{AggFn::kCount, -1}}, input, options);
  }
}

TEST(Aggregation, SumOverflowWrapsLikeUint64) {
  // Unsigned overflow semantics: SUM wraps mod 2^64, same as reference.
  std::vector<uint64_t> keys(10, 1);
  std::vector<uint64_t> values(10, ~uint64_t{0} / 4);
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = keys.size();
  ExpectMatchesReference({{AggFn::kSum, 0}}, input, TinyCacheOptions());
}

TEST(Aggregation, AdversarialSameBlockKeys) {
  // Distinct keys that all land in one level-0 radix block. A
  // minimum-size table has blocks of 2 slots, so InsertKeys hits a block
  // overflow in the middle of its out-of-order 16-blocks — the resume
  // path must hand back exactly the consumed prefix (regression guard for
  // the mid-16-block kFull handling in PassContext::InsertKeys).
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 2000; ++k) {
    if (RadixDigit(MurmurHash64(k), 0) == 5) keys.push_back(k);
  }
  for (int r = 0; r < 2; ++r) {  // repeats so early aggregation matters
    for (size_t i = 0; i < 700; ++i) keys.push_back(keys[i]);
  }
  Column values = GenerateValues(keys.size(), 13);
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = keys.size();
  AggregationOptions options = TinyCacheOptions(2, /*table_bytes=*/1);
  ExpectMatchesReference({{AggFn::kCount, -1}, {AggFn::kMax, 0}}, input,
                         options);
}

// ---------------------------------------------------------------------------
// Fault injection: a throwing pass task must surface as a Status, not as
// std::terminate or a hung Wait, and the operator must stay usable.

TEST(Aggregation, InjectedFaultPropagatesStatus) {
  GenParams gp;
  gp.n = 50000;
  gp.k = 5000;
  Column keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  AggregationOptions options = TinyCacheOptions(4);
  options.fault_hook = [](int level) {
    throw std::runtime_error("injected pass failure");
  };
  AggregationOperator op({{AggFn::kCount, -1}}, options);
  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected pass failure"), std::string::npos);
}

TEST(Aggregation, OperatorRecoversAfterInjectedFault) {
  GenParams gp;
  gp.n = 40000;
  gp.k = 3000;
  Column keys = GenerateKeys(gp);
  Column values = GenerateValues(gp.n, 21);
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = keys.size();

  // Arm the hook for the first Execute only; the second must succeed and
  // match the reference bit for bit (no partial state leaks across the
  // failed run).
  auto armed = std::make_shared<std::atomic<bool>>(true);
  AggregationOptions options = TinyCacheOptions(4);
  options.fault_hook = [armed](int level) {
    if (armed->load()) throw std::runtime_error("first run fails");
  };
  std::vector<AggregateSpec> specs = {{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  AggregationOperator op(specs, options);

  ResultTable result;
  ASSERT_FALSE(op.Execute(input, &result).ok());

  armed->store(false);
  ResultTable got;
  ASSERT_TRUE(op.Execute(input, &got).ok());
  ResultTable expect = ReferenceAggregate(input, specs);
  SortResultByKey(&got);
  ASSERT_EQ(got.keys, expect.keys);
  ASSERT_EQ(got.aggregates[0].u64, expect.aggregates[0].u64);
  ASSERT_EQ(got.aggregates[1].u64, expect.aggregates[1].u64);
}

TEST(Aggregation, ExactGroupsHintScalesAndClampsToFloor) {
  // Unknown cardinality stays unknown (growable table sizes itself).
  EXPECT_EQ(ExactGroupsHint(0, 0), 0u);
  EXPECT_EQ(ExactGroupsHint(0, 5), 0u);
  // Level 0 passes the hint through.
  EXPECT_EQ(ExactGroupsHint(1 << 20, 0), size_t{1} << 20);
  // Each completed radix level divides the expected residue by kFanOut.
  EXPECT_EQ(ExactGroupsHint(1 << 20, 1), size_t{1} << 12);
  // Deep levels used to divide down to zero (rehash churn from a minimal
  // table); now they clamp to a sane floor instead.
  EXPECT_EQ(ExactGroupsHint(1 << 20, 2), 64u);
  EXPECT_EQ(ExactGroupsHint(1 << 20, 7), 64u);
  EXPECT_EQ(ExactGroupsHint(100, 1), 64u);
  EXPECT_EQ(ExactGroupsHint(1, 8), 64u);
}

TEST(Aggregation, MemoryBudgetExhaustionReturnsStatus) {
  // Run-store demand far above the pool's recycled inventory: with a tight
  // budget the execution must fail with a Status (no bad_alloc / abort),
  // and the same operator must produce correct results once the limit is
  // lifted.
  GenParams gp;
  gp.n = 1 << 20;
  gp.k = gp.n;  // all-distinct: every level materializes ~n rows of runs
  Column keys = GenerateKeys(gp);
  Column values = GenerateValues(gp.n, 13);
  InputTable input;
  input.keys = keys.data();
  input.values = {values.data()};
  input.num_rows = keys.size();

  std::vector<AggregateSpec> specs = {{AggFn::kSum, 0}, {AggFn::kCount, -1}};
  AggregationOperator op(specs, TinyCacheOptions(2));

  MemoryBudget& budget = MemoryBudget::Global();
  // Pooled chunks from earlier tests are recycled without touching the
  // budget, so cap one slab above current usage: the first fresh slab
  // still fits, the run store's real demand (tens of MiB) does not.
  budget.SetLimit(budget.used() + ChunkPool::kSlabBytes);
  ResultTable result;
  Status s = op.Execute(input, &result);
  budget.SetLimit(0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("memory budget exceeded"), std::string::npos)
      << s.message();

  // Unlimited again: the operator recovered and matches the reference.
  ResultTable got;
  ASSERT_TRUE(op.Execute(input, &got).ok());
  ResultTable expect = ReferenceAggregate(input, specs);
  SortResultByKey(&got);
  ASSERT_EQ(got.keys, expect.keys);
  ASSERT_EQ(got.aggregates[0].u64, expect.aggregates[0].u64);
  ASSERT_EQ(got.aggregates[1].u64, expect.aggregates[1].u64);
}

TEST(Aggregation, ExecStatsReportMemoryCounters) {
  GenParams gp;
  gp.n = 100000;
  gp.k = 50000;
  Column keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions(2));
  ResultTable r1, r2;
  ExecStats cold, warm;
  ASSERT_TRUE(op.Execute(input, &r1, &cold).ok());
  ASSERT_TRUE(op.Execute(input, &r2, &warm).ok());

  // The run store was exercised and the peak was observed.
  EXPECT_GT(cold.chunks_allocated + cold.chunks_recycled, 0u);
  EXPECT_GT(cold.mem_peak_bytes, 0u);
  // The warm execution has the cold one's chunks in the pool: identical
  // work must be served (almost) entirely from recycled blocks.
  EXPECT_GT(warm.chunks_recycled, 0u);
  EXPECT_LE(warm.chunks_allocated, cold.chunks_allocated / 4);
}

TEST(Aggregation, InjectedFaultAtDeepLevelAbortsCleanly) {
  // Fail only below the root so the error surfaces mid-recursion, with
  // sibling buckets still in flight.
  GenParams gp;
  gp.n = 60000;
  gp.k = 60000;  // high cardinality forces recursion with a tiny table
  Column keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  AggregationOptions options = TinyCacheOptions(4, /*table_bytes=*/1 << 14);
  options.fault_hook = [](int level) {
    if (level >= 1) throw std::runtime_error("deep pass failure");
  };
  AggregationOperator op({{AggFn::kCount, -1}}, options);
  ResultTable result;
  Status s = op.Execute(input, &result);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("deep pass failure"), std::string::npos);
}

}  // namespace
}  // namespace cea
