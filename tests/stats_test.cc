// Tests of the execution telemetry and of the adaptive behavior the
// telemetry exposes (the mechanics behind Figures 4, 5, 9 and 11).

#include <gtest/gtest.h>

#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "test_util.h"

namespace cea {
namespace {

ExecStats RunWith(const std::vector<uint64_t>& keys,
                  AggregationOptions options) {
  AggregationOperator op({{AggFn::kCount, -1}}, options);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  ExecStats stats;
  Status s = op.Execute(input, &result, &stats);
  EXPECT_TRUE(s.ok());
  return stats;
}

std::vector<uint64_t> UniformKeys(uint64_t n, uint64_t k, uint64_t seed = 1) {
  GenParams gp;
  gp.n = n;
  gp.k = k;
  gp.seed = seed;
  return GenerateKeys(gp);
}

TEST(Stats, PerLevelBreakdownSumsToTotals) {
  ExecStats s = RunWith(UniformKeys(120000, 40000), TinyCacheOptions(2));
  uint64_t hashed = 0, partitioned = 0;
  for (size_t l = 0; l < s.rows_hashed_at_level.size(); ++l) {
    hashed += s.rows_hashed_at_level[l];
    partitioned += s.rows_partitioned_at_level[l];
  }
  EXPECT_EQ(hashed, s.rows_hashed);
  EXPECT_EQ(partitioned, s.rows_partitioned);
  // Every input row is processed at least once.
  EXPECT_GE(s.rows_hashed + s.rows_partitioned, 120000u);
}

TEST(Stats, HashingOnlyNeverPartitions) {
  AggregationOptions o = TinyCacheOptions(2);
  o.policy = AggregationOptions::PolicyKind::kHashingOnly;
  ExecStats s = RunWith(UniformKeys(100000, 30000), o);
  EXPECT_EQ(s.rows_partitioned, 0u);
  EXPECT_EQ(s.switches_to_partition, 0u);
  EXPECT_GT(s.tables_flushed, 0u);
}

TEST(Stats, PartitionAlwaysPartitionsEveryRowAtLevel0) {
  AggregationOptions o = TinyCacheOptions(2);
  o.policy = AggregationOptions::PolicyKind::kPartitionAlways;
  o.partition_passes = 2;
  ExecStats s = RunWith(UniformKeys(100000, 30000), o);
  EXPECT_EQ(s.rows_partitioned_at_level[0], 100000u);
  EXPECT_EQ(s.rows_hashed_at_level[0], 0u);
  // The final pass hashes everything once.
  EXPECT_EQ(s.rows_hashed_at_level[1], 100000u);
}

TEST(Stats, AdaptiveSwitchesOnUniformLargeK) {
  ExecStats s = RunWith(UniformKeys(150000, 150000), TinyCacheOptions(1));
  EXPECT_GE(s.switches_to_partition, 1u);
  EXPECT_GT(s.rows_partitioned, 0u);
  // Uniform all-distinct input: reduction factor near 1.
  EXPECT_LT(s.mean_alpha(), 3.0);
}

TEST(Stats, AdaptiveStaysHashingOnSmallK) {
  AggregationOptions o;
  o.num_threads = 1;
  o.table_bytes = 4 << 20;
  ExecStats s = RunWith(UniformKeys(100000, 64), o);
  EXPECT_EQ(s.switches_to_partition, 0u);
  EXPECT_EQ(s.tables_flushed, 0u);
  EXPECT_EQ(s.passes, 1u);
  EXPECT_GE(s.final_hash_passes, 1u);
}

TEST(Stats, AdaptiveExploitsClusteredLocality) {
  // moving-cluster with a small window: high locality, so hashing keeps
  // reducing the input and partitioning stays rare even for large K.
  GenParams gp;
  gp.n = 200000;
  gp.k = 10000;  // ~20 repetitions per key, all within the sliding window
  gp.dist = Distribution::kMovingCluster;
  gp.cluster_window = 256;
  std::vector<uint64_t> clustered = GenerateKeys(gp);
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 17);
  ExecStats s = RunWith(clustered, o);
  // Locality: most rows are absorbed by hashing.
  EXPECT_GT(s.rows_hashed, s.rows_partitioned);
  EXPECT_GT(s.mean_alpha(), 3.0);
}

TEST(Stats, AdaptiveReactsToDistributionChange) {
  // First half: one hot key (alpha huge). Second half: all distinct
  // (alpha ~ 1). With c small the operator must switch at least twice.
  std::vector<uint64_t> keys(100000, 7);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) keys.push_back(rng.Next() | 1);
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 16);
  o.c = 2;
  ExecStats s = RunWith(keys, o);
  EXPECT_GE(s.switches_to_partition, 1u);
  EXPECT_GE(s.switches_to_hash, 1u);
  EXPECT_GT(s.rows_hashed, 0u);
  EXPECT_GT(s.rows_partitioned, 0u);
}

TEST(Stats, LargerCMeansFewerSwitchbacks) {
  std::vector<uint64_t> keys = UniformKeys(200000, 200000, 9);
  AggregationOptions lo = TinyCacheOptions(1);
  lo.c = 1;
  AggregationOptions hi = TinyCacheOptions(1);
  hi.c = 50;
  ExecStats s_lo = RunWith(keys, lo);
  ExecStats s_hi = RunWith(keys, hi);
  EXPECT_GT(s_lo.switches_to_hash, s_hi.switches_to_hash);
}

TEST(Stats, SecondsPerLevelArePopulated) {
  ExecStats s = RunWith(UniformKeys(100000, 50000), TinyCacheOptions(2));
  double total = 0;
  for (double sec : s.seconds_at_level) total += sec;
  EXPECT_GT(total, 0.0);
}

TEST(Stats, MaxLevelGrowsWithK) {
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 14);
  ExecStats small = RunWith(UniformKeys(50000, 16), o);
  ExecStats large = RunWith(UniformKeys(50000, 50000), o);
  EXPECT_EQ(small.max_level, 0);
  EXPECT_GE(large.max_level, 1);
}

TEST(Stats, MergeAccumulates) {
  ExecStats a, b;
  a.rows_hashed = 10;
  a.max_level = 2;
  a.sum_alpha = 5;
  a.num_alpha = 1;
  b.rows_hashed = 20;
  b.max_level = 1;
  b.sum_alpha = 7;
  b.num_alpha = 1;
  a.Merge(b);
  EXPECT_EQ(a.rows_hashed, 30u);
  EXPECT_EQ(a.max_level, 2);
  EXPECT_DOUBLE_EQ(a.mean_alpha(), 6.0);
}

TEST(Stats, EmptyStatsMeanAlphaIsZero) {
  ExecStats s;
  EXPECT_EQ(s.mean_alpha(), 0.0);
}

// Populate EVERY field of two ExecStats with distinct non-zero values and
// verify the merge accumulates each one. The struct and Merge() both come
// from CEA_EXEC_STATS_FIELDS, so they cannot drift apart; these
// hand-written expectations are the independent check of each field's
// merge rule in that list.
TEST(Stats, MergeAccumulatesEveryField) {
  auto fill = [](uint64_t base) {
    ExecStats s;
    s.rows_hashed = base + 1;
    s.rows_partitioned = base + 2;
    s.tables_flushed = base + 3;
    s.switches_to_partition = base + 4;
    s.switches_to_hash = base + 5;
    s.final_hash_passes = base + 6;
    s.distinct_shortcut_runs = base + 7;
    s.fallback_buckets = base + 8;
    s.passes = base + 9;
    s.morsels = base + 14;
    s.chunks_allocated = base + 11;
    s.chunks_recycled = base + 12;
    s.mem_peak_bytes = base + 13;
    s.spilled_bytes = base + 15;
    s.spill_read_bytes = base + 16;
    s.spill_files = base + 17;
    s.max_level = static_cast<int>(base % 5);
    s.sum_alpha = static_cast<double>(base) / 2.0;
    s.num_alpha = base + 10;
    for (size_t l = 0; l < s.rows_hashed_at_level.size(); ++l) {
      s.rows_hashed_at_level[l] = base + 100 + l;
      s.rows_partitioned_at_level[l] = base + 200 + l;
      s.seconds_at_level[l] = static_cast<double>(base + l) / 8.0;
    }
    return s;
  };

  ExecStats a = fill(1000);
  const ExecStats b = fill(31);
  a.Merge(b);

  EXPECT_EQ(a.rows_hashed, 1001u + 32u);
  EXPECT_EQ(a.rows_partitioned, 1002u + 33u);
  EXPECT_EQ(a.tables_flushed, 1003u + 34u);
  EXPECT_EQ(a.switches_to_partition, 1004u + 35u);
  EXPECT_EQ(a.switches_to_hash, 1005u + 36u);
  EXPECT_EQ(a.final_hash_passes, 1006u + 37u);
  EXPECT_EQ(a.distinct_shortcut_runs, 1007u + 38u);
  EXPECT_EQ(a.fallback_buckets, 1008u + 39u);
  EXPECT_EQ(a.passes, 1009u + 40u);
  EXPECT_EQ(a.morsels, 1014u + 45u);
  EXPECT_EQ(a.chunks_allocated, 1011u + 42u);
  EXPECT_EQ(a.chunks_recycled, 1012u + 43u);
  EXPECT_EQ(a.mem_peak_bytes, 1013u);  // max, not sum: process-wide peak
  EXPECT_EQ(a.spilled_bytes, 1015u + 46u);
  EXPECT_EQ(a.spill_read_bytes, 1016u + 47u);
  EXPECT_EQ(a.spill_files, 1017u + 48u);
  EXPECT_EQ(a.max_level, 1);  // max(1000 % 5, 31 % 5)
  EXPECT_DOUBLE_EQ(a.sum_alpha, 500.0 + 15.5);
  EXPECT_EQ(a.num_alpha, 1010u + 41u);
  for (size_t l = 0; l < a.rows_hashed_at_level.size(); ++l) {
    EXPECT_EQ(a.rows_hashed_at_level[l], 1100 + 131 + 2 * l) << "level " << l;
    EXPECT_EQ(a.rows_partitioned_at_level[l], 1200 + 231 + 2 * l)
        << "level " << l;
    EXPECT_DOUBLE_EQ(a.seconds_at_level[l],
                     (1000.0 + l) / 8.0 + (31.0 + l) / 8.0)
        << "level " << l;
  }
}

TEST(Stats, MergeIntoDefaultEqualsCopy) {
  ExecStats src;
  src.rows_hashed = 42;
  src.max_level = 3;
  src.sum_alpha = 9.5;
  src.num_alpha = 2;
  src.rows_hashed_at_level[3] = 42;
  src.seconds_at_level[3] = 0.25;

  ExecStats dst;
  dst.Merge(src);
  EXPECT_EQ(dst.rows_hashed, src.rows_hashed);
  EXPECT_EQ(dst.max_level, src.max_level);
  EXPECT_DOUBLE_EQ(dst.sum_alpha, src.sum_alpha);
  EXPECT_EQ(dst.num_alpha, src.num_alpha);
  EXPECT_EQ(dst.rows_hashed_at_level[3], 42u);
  EXPECT_DOUBLE_EQ(dst.seconds_at_level[3], 0.25);
}

}  // namespace
}  // namespace cea
