// Tests of the naive textbook algorithms (Section 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "cea/textbook/textbook_agg.h"

namespace cea {
namespace {

std::map<uint64_t, uint64_t> AsMap(const GroupCounts& gc) {
  std::map<uint64_t, uint64_t> m;
  for (size_t i = 0; i < gc.keys.size(); ++i) {
    EXPECT_EQ(m.count(gc.keys[i]), 0u) << "duplicate key";
    m[gc.keys[i]] = gc.counts[i];
  }
  return m;
}

// Test-name suffix "k<cardinality>". It appends rather than returning
// "k" + std::to_string(...): GCC 12 reports a false -Wrestrict on the
// latter at -O3.
std::string CardinalityName(const ::testing::TestParamInfo<uint64_t>& info) {
  std::string name = "k";
  name += std::to_string(info.param);
  return name;
}

class TextbookTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextbookTest, HashMatchesScalar) {
  GenParams gp;
  gp.n = 30000;
  gp.k = GetParam();
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  EXPECT_EQ(AsMap(TextbookHashAggregation(keys.data(), keys.size(), gp.k)),
            expect);
}

TEST_P(TextbookTest, SortMatchesScalar) {
  GenParams gp;
  gp.n = 30000;
  gp.k = GetParam();
  gp.dist = Distribution::kZipf;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  // Tiny fast memory: forces several recursion levels.
  EXPECT_EQ(AsMap(TextbookSortAggregation(keys.data(), keys.size(),
                                          /*fast_memory_bytes=*/1 << 12)),
            expect);
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, TextbookTest,
                         ::testing::Values(uint64_t{1}, uint64_t{17},
                                           uint64_t{1000}, uint64_t{30000}),
                         CardinalityName);

TEST(Textbook, SortAggEmptyInput) {
  GroupCounts out = TextbookSortAggregation(nullptr, 0, 1 << 20);
  EXPECT_TRUE(out.keys.empty());
}

TEST(Textbook, HashAggEmptyInput) {
  GroupCounts out = TextbookHashAggregation(nullptr, 0, 0);
  EXPECT_TRUE(out.keys.empty());
}

class MergeSortEaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeSortEaTest, MatchesScalar) {
  GenParams gp;
  gp.n = 30000;
  gp.k = GetParam();
  gp.dist = Distribution::kMovingCluster;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  GroupCounts got = MergeSortEarlyAggregation(keys.data(), keys.size(),
                                              /*run_rows=*/1024);
  EXPECT_EQ(AsMap(got), expect);
  // Output of a merge tree over sorted runs is itself sorted.
  EXPECT_TRUE(std::is_sorted(got.keys.begin(), got.keys.end()));
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, MergeSortEaTest,
                         ::testing::Values(uint64_t{1}, uint64_t{13},
                                           uint64_t{997}, uint64_t{30000}),
                         CardinalityName);

TEST(MergeSortEa, TinyRunsAndEmptyInput) {
  GroupCounts empty = MergeSortEarlyAggregation(nullptr, 0, 64);
  EXPECT_TRUE(empty.keys.empty());

  std::vector<uint64_t> keys = {3, 1, 3, 2, 1, 3};
  GroupCounts got = MergeSortEarlyAggregation(keys.data(), keys.size(),
                                              /*run_rows=*/1);
  EXPECT_EQ(got.keys, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(got.counts, (std::vector<uint64_t>{2, 1, 3}));
}

TEST(MergeSortEa, EarlyAggregationShrinksRunsOnClusteredData) {
  // With locality, initial runs already collapse to few groups: the total
  // output of phase 1 is much smaller than N (the early-aggregation
  // benefit the paper's HASHING routine exploits in the same situation).
  GenParams gp;
  gp.n = 50000;
  gp.k = 500;  // every key repeats ~100 times, clustered
  gp.dist = Distribution::kMovingCluster;
  gp.cluster_window = 128;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  std::set<uint64_t> distinct(keys.begin(), keys.end());
  GroupCounts got = MergeSortEarlyAggregation(keys.data(), keys.size(), 4096);
  EXPECT_EQ(got.keys.size(), distinct.size());
  EXPECT_LE(got.keys.size(), 500u);
}

TEST(Textbook, SortAggOutputIsGroupedBySortedHash) {
  // The leaf pass emits groups in (hash, key) order within each bucket;
  // verify total counts and that no key appears twice (full grouping).
  std::vector<uint64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) keys.push_back(rng.NextBounded(50));
  GroupCounts out =
      TextbookSortAggregation(keys.data(), keys.size(), 1 << 10);
  EXPECT_EQ(out.keys.size(), 50u);
  uint64_t total = 0;
  for (uint64_t c : out.counts) total += c;
  EXPECT_EQ(total, keys.size());
}

}  // namespace
}  // namespace cea
