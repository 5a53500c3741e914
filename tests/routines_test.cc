// Unit tests for the HASHING/PARTITIONING routines and the PassContext
// state machine, below the operator level.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cea/common/random.h"
#include "cea/core/policy.h"
#include "cea/core/routines.h"
#include "cea/hash/murmur.h"
#include "cea/hash/radix.h"

namespace cea {

// Named friend of PassContext: forwards to the private routine entry
// points so their contracts (consumed counts, slot mappings) can be
// tested directly, without the ProcessMorsel state machine on top.
struct PassContextTestPeer {
  static bool InsertKeys(PassContext* ctx, const Morsel& m, size_t from,
                         size_t n, size_t* consumed) {
    return ctx->InsertKeys(m, from, n, consumed);
  }
};

namespace {

constexpr size_t kTableBytes = 1 << 16;  // tiny table: forces flushes

Morsel RawMorsel(const std::vector<uint64_t>& keys,
                 const std::vector<const uint64_t*>& cols) {
  Morsel m;
  m.key_cols = {keys.data()};
  m.n = keys.size();
  m.cols = cols;
  return m;
}

// Collects {key -> count} from a Run with a single COUNT state word.
std::map<uint64_t, uint64_t> CountsOfRun(const cea::Run& run) {
  std::map<uint64_t, uint64_t> counts;
  std::vector<uint64_t> keys = run.key_cols[0].ToVector();
  std::vector<uint64_t> c = run.states[0].ToVector();
  for (size_t i = 0; i < keys.size(); ++i) counts[keys[i]] += c[i];
  return counts;
}

std::map<uint64_t, uint64_t> CountsOfRuns(std::array<Run, kFanOut>& runs) {
  std::map<uint64_t, uint64_t> counts;
  for (auto& run : runs) {
    for (auto& [k, v] : CountsOfRun(run)) counts[k] += v;
  }
  return counts;
}

TEST(HashingRoutine, SmallInputFinalizesInOnePass) {
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();
  WorkerResources res(layout, 1 << 20, 1 << 16);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  std::vector<uint64_t> keys;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.NextBounded(100));
  ctx.ProcessMorsel(RawMorsel(keys, {nullptr}));

  cea::Run final_run(1, layout);
  EXPECT_TRUE(ctx.Finalize(keys.size(), &final_run));
  EXPECT_TRUE(final_run.distinct);
  EXPECT_EQ(final_run.size(), 100u);

  std::map<uint64_t, uint64_t> got = CountsOfRun(final_run);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  EXPECT_EQ(got, expect);
  EXPECT_EQ(stats.tables_flushed, 0u);
  EXPECT_EQ(stats.final_hash_passes, 1u);
  EXPECT_EQ(stats.rows_hashed, keys.size());
}

TEST(HashingRoutine, FlushesAndPreservesMultiset) {
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  // Many distinct keys: tiny table must flush repeatedly.
  std::vector<uint64_t> keys;
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) keys.push_back(rng.Next());
  ctx.ProcessMorsel(RawMorsel(keys, {nullptr}));

  cea::Run final_run(1, layout);
  EXPECT_FALSE(ctx.Finalize(keys.size(), &final_run));
  EXPECT_GT(stats.tables_flushed, 0u);

  std::map<uint64_t, uint64_t> got = CountsOfRuns(ctx.runs());
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  EXPECT_EQ(got, expect);
}

TEST(HashingRoutine, RunsRespectRadixPartitions) {
  StateLayout layout;
  auto policy = MakeHashingOnlyPolicy();
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  std::vector<uint64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 30000; ++i) keys.push_back(rng.Next());
  ctx.ProcessMorsel(RawMorsel(keys, {}));
  cea::Run final_run(1, layout);
  ctx.Finalize(keys.size(), &final_run);

  for (uint32_t p = 0; p < kFanOut; ++p) {
    for (uint64_t key : ctx.runs()[p].key_cols[0].ToVector()) {
      ASSERT_EQ(RadixDigit(MurmurHash64(key), 0), p);
    }
  }
}

TEST(HashingRoutine, SplitRunsAreDistinct) {
  StateLayout layout;
  auto policy = MakeHashingOnlyPolicy();
  WorkerResources res(layout, 1 << 20, 1 << 16);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  // Force exactly one flush by feeding two segments with a sentinel check:
  // enough distinct keys to fill the table once, then finalize.
  std::vector<uint64_t> keys;
  Rng rng(4);
  WorkerResources probe(layout, 1 << 20, 1 << 16);
  uint32_t cap = probe.table().max_fill_slots();
  for (uint32_t i = 0; i < cap / 2; ++i) keys.push_back(rng.Next());
  ctx.ProcessMorsel(RawMorsel(keys, {}));
  cea::Run final_run(1, layout);
  bool final = ctx.Finalize(keys.size() + 1, &final_run);  // pretend more rows exist
  EXPECT_FALSE(final);
  // Single split => each non-empty run is distinct.
  for (auto& run : ctx.runs()) {
    if (!run.empty()) {
      EXPECT_TRUE(run.distinct);
    }
  }
}

TEST(PartitioningRoutine, IsPermutationWithDigitInvariant) {
  StateLayout layout({{AggFn::kSum, 0}});
  auto policy = MakePartitionAlwaysPolicy(3);  // level 0 < 2: partitions
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);
  EXPECT_EQ(ctx.mode(), Mode::kPartition);

  std::vector<uint64_t> keys, values;
  Rng rng(5);
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(rng.NextBounded(1000));
    values.push_back(rng.NextBounded(100));
  }
  ctx.ProcessMorsel(RawMorsel(keys, {values.data()}));
  cea::Run final_run(1, layout);
  EXPECT_FALSE(ctx.Finalize(keys.size(), &final_run));
  EXPECT_EQ(stats.rows_partitioned, keys.size());
  EXPECT_EQ(stats.rows_hashed, 0u);

  // Multiset of (key, value) pairs is preserved; runs respect digits and
  // are NOT marked distinct.
  std::map<std::pair<uint64_t, uint64_t>, size_t> expect, got;
  for (size_t i = 0; i < keys.size(); ++i) ++expect[{keys[i], values[i]}];
  size_t total = 0;
  for (uint32_t p = 0; p < kFanOut; ++p) {
    const cea::Run& run = ctx.runs()[p];
    EXPECT_FALSE(run.distinct);
    std::vector<uint64_t> rk = run.key_cols[0].ToVector();
    std::vector<uint64_t> rv = run.states[0].ToVector();
    ASSERT_EQ(rk.size(), rv.size());
    total += rk.size();
    for (size_t i = 0; i < rk.size(); ++i) {
      ASSERT_EQ(RadixDigit(MurmurHash64(rk[i]), 0), p);
      ++got[{rk[i], rv[i]}];
    }
  }
  EXPECT_EQ(total, keys.size());
  EXPECT_EQ(got, expect);
}

TEST(PartitioningRoutine, CountBecomesLiteralOne) {
  // Raw rows partitioned under COUNT must carry the state value 1.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakePartitionAlwaysPolicy(2);
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  std::vector<uint64_t> keys(1000, 42);
  ctx.ProcessMorsel(RawMorsel(keys, {nullptr}));
  cea::Run final_run(1, layout);
  ctx.Finalize(keys.size(), &final_run);

  uint32_t p = RadixDigit(MurmurHash64(42), 0);
  const cea::Run& run = ctx.runs()[p];
  ASSERT_EQ(run.size(), 1000u);
  for (uint64_t c : run.states[0].ToVector()) ASSERT_EQ(c, 1u);
}

// Builds WorkerResources whose table reports full after exactly
// `target_fill` new keys (max_fill chosen against the discovered
// capacity), so InsertKeys' mid-block and block-boundary exits can be
// hit deterministically.
std::unique_ptr<WorkerResources> ResourcesWithFillCap(
    const StateLayout& layout, uint32_t target_fill,
    size_t table_bytes = kTableBytes) {
  WorkerResources probe(1, layout, table_bytes, 1 << 12);
  uint32_t capacity = probe.table().capacity();
  double max_fill =
      (static_cast<double>(target_fill) + 0.5) / static_cast<double>(capacity);
  auto res = std::make_unique<WorkerResources>(1, layout, table_bytes,
                                               size_t{1} << 12, max_fill);
  CEA_CHECK(res->table().max_fill_slots() == target_fill);
  return res;
}

TEST(InsertKeys, TableFillsInsideAnOutOfOrderBlock) {
  // The single-key hot path works in out-of-order blocks of 16; a fill cap
  // of 122 = 7 * 16 + 10 trips mid-block, where *consumed must count the
  // rows of the partial block that still got slots.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();
  auto res = ResourcesWithFillCap(layout, 122);
  ExecStats stats;
  PassContext ctx(layout, *policy, res.get(), 0, &stats);

  constexpr uint32_t kSentinel = 0xcafef00du;
  for (size_t i = 0; i < res->max_morsel_rows(); ++i) {
    res->slots()[i] = kSentinel;
  }

  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 200; ++i) keys.push_back(i + 1);  // distinct
  Morsel m = RawMorsel(keys, {});

  size_t consumed = 0;
  bool full = PassContextTestPeer::InsertKeys(&ctx, m, 0, keys.size(),
                                              &consumed);
  EXPECT_TRUE(full);
  EXPECT_EQ(consumed, 122u);
  EXPECT_EQ(res->table().fill(), 122u);
  // Every consumed row received the slot that actually holds its key;
  // everything past the failure point was left untouched.
  for (size_t i = 0; i < consumed; ++i) {
    uint32_t s = res->slots()[i];
    ASSERT_NE(s, kSentinel) << "row " << i;
    ASSERT_LT(s, res->table().capacity());
    ASSERT_TRUE(res->table().TestOccupied(s));
    ASSERT_EQ(res->table().key_array()[s], keys[i]) << "row " << i;
  }
  for (size_t i = consumed; i < keys.size(); ++i) {
    ASSERT_EQ(res->slots()[i], kSentinel) << "row " << i;
  }
}

TEST(InsertKeys, TableFillsAtExactBlockBoundary) {
  // Cap of 112 = 7 * 16: the morsel fits exactly, so the full cap is only
  // reported on the *next* new key — with zero rows consumed.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();
  auto res = ResourcesWithFillCap(layout, 112);
  ExecStats stats;
  PassContext ctx(layout, *policy, res.get(), 0, &stats);

  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 112; ++i) keys.push_back(i + 1);
  Morsel m = RawMorsel(keys, {});
  size_t consumed = 0;
  EXPECT_FALSE(
      PassContextTestPeer::InsertKeys(&ctx, m, 0, keys.size(), &consumed));
  EXPECT_EQ(consumed, 112u);
  EXPECT_EQ(res->table().fill(), 112u);

  // A new key cannot claim a slot in the full table.
  std::vector<uint64_t> fresh = {10'000};
  Morsel m_fresh = RawMorsel(fresh, {});
  consumed = 99;
  EXPECT_TRUE(PassContextTestPeer::InsertKeys(&ctx, m_fresh, 0, 1, &consumed));
  EXPECT_EQ(consumed, 0u);

  // A duplicate key still resolves while the table is full (find, not
  // insert) and consumes its row.
  std::vector<uint64_t> dup = {keys[7]};
  Morsel m_dup = RawMorsel(dup, {});
  consumed = 0;
  EXPECT_FALSE(PassContextTestPeer::InsertKeys(&ctx, m_dup, 0, 1, &consumed));
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(res->table().key_array()[res->slots()[0]], keys[7]);
  EXPECT_EQ(res->table().fill(), 112u);
}

TEST(InsertKeys, ProbeWrapsThroughBlockBoundary) {
  // Keys crafted (via the Murmur inverse) to all start probing at slot 61
  // of a 64-slot block: the probe sequence runs through the block tail
  // 61,62,63 and wraps to 0,1,2, claiming exactly those slots in that
  // order.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();

  std::vector<uint64_t> keys;
  for (uint64_t j = 0; j < 6; ++j) {
    // Digit 5 at level 0, in-block start 61; j keeps the hashes distinct.
    uint64_t hash = (uint64_t{5} << 56) | (j << 16) | 61;
    uint64_t key = MurmurHash64Inverse(hash);
    ASSERT_EQ(MurmurHash64(key), hash);
    keys.push_back(key);
  }

  WorkerResources res(1, layout, size_t{1} << 19, size_t{1} << 12);
  ASSERT_EQ(res.table().block_capacity(), 64u);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  Morsel m = RawMorsel(keys, {});
  size_t consumed = 0;
  EXPECT_FALSE(
      PassContextTestPeer::InsertKeys(&ctx, m, 0, keys.size(), &consumed));
  EXPECT_EQ(consumed, keys.size());

  const uint32_t base = 5u * 64u;
  const uint32_t expect_offsets[6] = {61, 62, 63, 0, 1, 2};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(res.slots()[i], base + expect_offsets[i]) << "row " << i;
    ASSERT_TRUE(res.table().TestOccupied(res.slots()[i]));
    ASSERT_EQ(res.table().key_array()[res.slots()[i]], keys[i]);
  }

  // Re-inserting the same keys finds (not claims) the same slots.
  consumed = 0;
  EXPECT_FALSE(
      PassContextTestPeer::InsertKeys(&ctx, m, 0, keys.size(), &consumed));
  EXPECT_EQ(consumed, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(res.slots()[i], base + expect_offsets[i]) << "row " << i;
  }
  EXPECT_EQ(res.table().fill(), keys.size());
}

TEST(InsertKeys, FillCapTripsMidWrap) {
  // Same wrap-through-boundary sequence, but the fill cap allows only 4
  // new keys: rows 0..3 claim 61,62,63,0 and row 4 reports the table full
  // with consumed = 4.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakeHashingOnlyPolicy();

  std::vector<uint64_t> keys;
  for (uint64_t j = 0; j < 6; ++j) {
    keys.push_back(MurmurHash64Inverse((uint64_t{5} << 56) | (j << 16) | 61));
  }

  auto res = ResourcesWithFillCap(layout, 4, size_t{1} << 19);
  ASSERT_EQ(res->table().block_capacity(), 64u);
  ExecStats stats;
  PassContext ctx(layout, *policy, res.get(), 0, &stats);

  Morsel m = RawMorsel(keys, {});
  size_t consumed = 0;
  EXPECT_TRUE(
      PassContextTestPeer::InsertKeys(&ctx, m, 0, keys.size(), &consumed));
  EXPECT_EQ(consumed, 4u);
  EXPECT_EQ(res->table().fill(), 4u);

  const uint32_t base = 5u * 64u;
  const uint32_t expect_offsets[4] = {61, 62, 63, 0};
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(res->slots()[i], base + expect_offsets[i]) << "row " << i;
  }
}

TEST(AdaptiveRoutine, SwitchesToPartitioningOnLowAlpha) {
  StateLayout layout;
  auto policy = MakeAdaptivePolicy(/*alpha0=*/11.0, /*c=*/10);
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  // All-distinct keys: alpha ~= 1 at first fill -> must switch.
  std::vector<uint64_t> keys;
  Rng rng(6);
  for (int i = 0; i < 100000; ++i) keys.push_back(rng.Next());
  ctx.ProcessMorsel(RawMorsel(keys, {}));
  cea::Run final_run(1, layout);
  ctx.Finalize(keys.size(), &final_run);

  EXPECT_GE(stats.switches_to_partition, 1u);
  EXPECT_GT(stats.rows_partitioned, 0u);
  EXPECT_GT(stats.rows_hashed, 0u);
}

TEST(AdaptiveRoutine, StaysHashingOnHighAlpha) {
  StateLayout layout;
  auto policy = MakeAdaptivePolicy(11.0, 10);
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  // Only 64 distinct keys: the table never fills; pure hashing.
  std::vector<uint64_t> keys;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) keys.push_back(rng.NextBounded(64));
  ctx.ProcessMorsel(RawMorsel(keys, {}));
  cea::Run final_run(1, layout);
  EXPECT_TRUE(ctx.Finalize(keys.size(), &final_run));
  EXPECT_EQ(stats.switches_to_partition, 0u);
  EXPECT_EQ(stats.rows_partitioned, 0u);
}

TEST(AdaptiveRoutine, SwitchesBackAfterQuota) {
  StateLayout layout;
  auto policy = MakeAdaptivePolicy(11.0, /*c=*/1);  // tiny quota
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);

  std::vector<uint64_t> keys;
  Rng rng(8);
  for (int i = 0; i < 200000; ++i) keys.push_back(rng.Next());
  ctx.ProcessMorsel(RawMorsel(keys, {}));
  cea::Run final_run(1, layout);
  ctx.Finalize(keys.size(), &final_run);

  EXPECT_GE(stats.switches_to_hash, 1u);
  EXPECT_GE(stats.switches_to_partition, 2u);  // re-probe fills again
}

TEST(AggregateExact, MatchesScalarExpectation) {
  StateLayout layout({{AggFn::kSum, 0}, {AggFn::kCount, -1}});
  std::vector<uint64_t> keys, values;
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(rng.NextBounded(300));
    values.push_back(rng.NextBounded(50));
  }
  std::vector<Morsel> morsels = {
      RawMorsel(keys, {values.data(), nullptr})};
  cea::Run final_run(1, layout);
  AggregateExact(morsels, 1, layout, 0, &final_run);
  EXPECT_TRUE(final_run.distinct);

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> expect;
  for (size_t i = 0; i < keys.size(); ++i) {
    expect[keys[i]].first += values[i];
    expect[keys[i]].second += 1;
  }
  ASSERT_EQ(final_run.size(), expect.size());
  std::vector<uint64_t> rk = final_run.key_cols[0].ToVector();
  std::vector<uint64_t> sums = final_run.states[0].ToVector();
  std::vector<uint64_t> counts = final_run.states[1].ToVector();
  for (size_t i = 0; i < rk.size(); ++i) {
    ASSERT_EQ(sums[i], expect[rk[i]].first);
    ASSERT_EQ(counts[i], expect[rk[i]].second);
  }
}

TEST(PartitioningRoutine, CountOnlyRawMorselWithNoValueColumns) {
  // A COUNT(*)-only query reads no value column: its one state word is a
  // null pointer, which partitioning appends as the literal 1.
  StateLayout layout({{AggFn::kCount, -1}});
  auto policy = MakePartitionAlwaysPolicy(2);
  WorkerResources res(layout, kTableBytes, 1 << 18);
  ExecStats stats;
  PassContext ctx(layout, *policy, &res, 0, &stats);
  ASSERT_EQ(ctx.mode(), Mode::kPartition);

  std::vector<uint64_t> keys;
  Rng rng(10);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.NextBounded(200));
  ctx.ProcessMorsel(RawMorsel(keys, /*cols=*/{nullptr}));
  cea::Run final_run(1, layout);
  EXPECT_FALSE(ctx.Finalize(keys.size(), &final_run));
  EXPECT_EQ(stats.rows_partitioned, keys.size());

  std::map<uint64_t, uint64_t> got = CountsOfRuns(ctx.runs());
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  EXPECT_EQ(got, expect);
}

TEST(AggregateExact, CountOnlyRawMorselWithNoValueColumns) {
  // Same COUNT(*)-only morsel for the exact path, which adds 1 per row for
  // the null state word.
  StateLayout layout({{AggFn::kCount, -1}});
  std::vector<uint64_t> keys;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.NextBounded(200));
  std::vector<Morsel> morsels = {RawMorsel(keys, /*cols=*/{nullptr})};
  cea::Run final_run(1, layout);
  AggregateExact(morsels, 1, layout, 0, &final_run);
  EXPECT_TRUE(final_run.distinct);

  std::map<uint64_t, uint64_t> got = CountsOfRun(final_run);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k : keys) ++expect[k];
  EXPECT_EQ(got, expect);
}

TEST(InputMorsel, PointsEachStateWordAtItsInputColumn) {
  // Raw input is read as states: one pointer per state word, offset into
  // the caller's columns, and null for the constant 1 of COUNT(*) and of
  // AVG's count word.
  StateLayout layout({{AggFn::kCount, -1},
                      {AggFn::kSum, 0},
                      {AggFn::kMin, 1},
                      {AggFn::kMax, 0},
                      {AggFn::kAvg, 1}});
  EXPECT_EQ(layout.word_op,
            (std::vector<StateOp>{StateOp::kAdd, StateOp::kAdd, StateOp::kMin,
                                  StateOp::kMax, StateOp::kAdd,
                                  StateOp::kAdd}));
  EXPECT_EQ(StateIdentity(StateOp::kAdd), 0u);
  EXPECT_EQ(StateIdentity(StateOp::kMin), ~uint64_t{0});
  EXPECT_EQ(StateIdentity(StateOp::kMax), 0u);

  std::vector<uint64_t> k0(100), k1(100), v0(100), v1(100);
  InputTable input;
  input.keys = k0.data();
  input.extra_keys = {k1.data()};
  input.values = {v0.data(), v1.data()};
  input.num_rows = 100;
  constexpr size_t kOff = 40;
  Morsel m = InputMorsel(input, layout, kOff, 25);
  EXPECT_EQ(m.n, 25u);
  EXPECT_EQ(m.key_cols,
            (std::vector<const uint64_t*>{k0.data() + kOff, k1.data() + kOff}));
  EXPECT_EQ(m.cols, (std::vector<const uint64_t*>{
                        nullptr, v0.data() + kOff, v1.data() + kOff,
                        v0.data() + kOff, v1.data() + kOff, nullptr}));
}

TEST(MorselsForBucket, DecomposesRunsByChunks) {
  StateLayout layout({{AggFn::kSum, 0}});
  Bucket bucket;
  cea::Run run(1, layout);
  for (uint64_t i = 0; i < 5000; ++i) {
    run.key_cols[0].Append(i);
    run.states[0].Append(i * 2);
  }
  bucket.push_back(std::move(run));
  std::vector<Morsel> morsels = MorselsForBucket(bucket, 1, layout);
  size_t total = 0;
  uint64_t next = 0;
  for (const Morsel& m : morsels) {
    ASSERT_EQ(m.cols.size(), 1u);
    for (size_t i = 0; i < m.n; ++i) {
      ASSERT_EQ(m.key_cols[0][i], next);
      ASSERT_EQ(m.cols[0][i], next * 2);
      ++next;
    }
    total += m.n;
  }
  EXPECT_EQ(total, 5000u);
}

}  // namespace
}  // namespace cea
