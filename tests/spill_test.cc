// Tests of the spill-to-disk degradation path: the SpillFile I/O
// primitive (including concurrent block reads beside appends and the
// rollback of an abandoned segment), SpillManager segment round-trips and
// restore-wave admission, the operator completing group-bys whose working
// set exceeds the memory budget (verified against the unlimited-budget
// reference, batch and streaming), one spill file serving every execution
// of an operator, the budget-exhaustion unwind paths (no chunk accounting
// leaks), and a seeded differential fuzz including mid-spill cancellation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cea/core/spill_manager.h"
#include "cea/core/stats_io.h"
#include "cea/datagen/generators.h"
#include "cea/mem/chunk_pool.h"
#include "cea/mem/spill_file.h"
#include "cea/obs/obs.h"
#include "test_util.h"

namespace cea {
namespace {

// gtest runs in one process with the warm global ChunkPool: used() never
// shrinks, so budgets are expressed as headroom over the current mark and
// the limit is always restored afterwards.
class BudgetGuard {
 public:
  BudgetGuard() : saved_(MemoryBudget::Global().limit()) {}
  ~BudgetGuard() { MemoryBudget::Global().SetLimit(saved_); }
  void SetHeadroom(size_t bytes) {
    MemoryBudget::Global().SetLimit(MemoryBudget::Global().used() + bytes);
  }

 private:
  size_t saved_;
};

// The spill directory of this test binary. Files are unlinked at
// creation, so there is nothing to clean up; /tmp always exists.
std::string SpillDir() { return "/tmp"; }

std::vector<uint64_t> UniformKeys(uint64_t n, uint64_t k, uint64_t seed) {
  GenParams gp;
  gp.n = n;
  gp.k = k;
  gp.seed = seed;
  return GenerateKeys(gp);
}

AggregationOptions SpillOptions(int threads, double threshold) {
  AggregationOptions o = TinyCacheOptions(threads);
  o.spill_dir = SpillDir();
  o.spill_threshold = threshold;
  return o;
}

// ---------------------------------------------------------------------------
// SpillFile

TEST(SpillFile, RoundTripOddSizesAcrossAlignBoundaries) {
  SpillFile f;
  ASSERT_TRUE(f.Create(SpillDir()).ok());
  EXPECT_TRUE(f.is_open());

  // Appends deliberately straddle the 4 KiB block and the 1 MiB staging
  // buffer boundaries with sizes that never align.
  std::vector<char> payload;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const size_t sizes[] = {1,    7,     4095,  4096,  4097,
                          8191, 65537, 100003, (1u << 20) + 13};
  for (size_t sz : sizes) {
    std::vector<char> piece(sz);
    for (char& c : piece) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    ASSERT_TRUE(f.Append(piece.data(), piece.size()).ok());
    payload.insert(payload.end(), piece.begin(), piece.end());
  }
  ASSERT_TRUE(f.FinishWrites().ok());
  EXPECT_EQ(f.size(), payload.size());

  // Whole-file read plus unaligned windows.
  std::vector<char> back(payload.size());
  ASSERT_TRUE(f.ReadAt(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  const size_t offsets[] = {1, 4095, 4096, 4097, 65536, payload.size() - 9};
  for (size_t off : offsets) {
    char window[9] = {0};
    ASSERT_TRUE(f.ReadAt(off, window, sizeof(window)).ok());
    EXPECT_EQ(0, std::memcmp(window, payload.data() + off, sizeof(window)))
        << "offset " << off;
  }
}

// Payload byte `i` of segment `seg` in the SpillFile tests below.
char SegmentByte(size_t seg, size_t i) {
  return static_cast<char>((seg * 131 + i * 7 + (i >> 9)) & 0xFF);
}

TEST(SpillFile, ReadBlocksConcurrentWithAppend) {
  SpillFile f;
  ASSERT_TRUE(f.Create(SpillDir()).ok());

  // Segments as SpillManager lays them out and flushes them: each starts
  // on a block, is padded by Pad and goes to disk with FinishWrites before
  // readers see it. Sizes straddle blocks and the 1 MiB staging buffer.
  struct Extent {
    uint64_t offset = 0;
    size_t bytes = 0;
  };
  constexpr size_t kInitial = 16, kAppended = 48;
  std::vector<Extent> extents(kInitial + kAppended);
  std::mt19937_64 rng(42);
  auto write_segment = [&](size_t seg) {
    const size_t bytes = seg % 16 == 7 ? (size_t{1} << 20) + 4099
                                       : 1 + rng() % 150000;
    std::vector<char> payload(bytes);
    for (size_t i = 0; i < bytes; ++i) payload[i] = SegmentByte(seg, i);
    extents[seg].offset = f.size();
    extents[seg].bytes = bytes;
    ASSERT_TRUE(f.Append(payload.data(), bytes).ok());
    ASSERT_TRUE(f.Pad().ok());
    ASSERT_TRUE(f.FinishWrites().ok());
  };
  for (size_t seg = 0; seg < kInitial; ++seg) write_segment(seg);

  // Readers see segments [0, published); the writer extends that range as
  // it finishes new segments.
  std::atomic<size_t> published{kInitial};
  std::atomic<bool> writing{true};
  std::atomic<uint64_t> mismatches{0}, failures{0}, reads{0};
  auto reader = [&](uint64_t seed) {
    std::mt19937_64 r(seed);
    const size_t cap = (size_t{2} << 20);
    std::unique_ptr<char, decltype(&std::free)> buf(
        static_cast<char*>(std::aligned_alloc(SpillFile::kAlign, cap)),
        &std::free);
    for (int n = 0; n < 200 || writing.load(std::memory_order_acquire);
         ++n) {
      const size_t seg = r() % published.load(std::memory_order_acquire);
      const Extent e = extents[seg];
      const size_t padded =
          (e.bytes + SpillFile::kAlign - 1) & ~(SpillFile::kAlign - 1);
      if (!f.ReadBlocks(e.offset, buf.get(), padded).ok()) {
        failures.fetch_add(1);
        continue;
      }
      reads.fetch_add(1);
      for (size_t i = 0; i < e.bytes; ++i) {
        if (buf.get()[i] != SegmentByte(seg, i)) {
          mismatches.fetch_add(1);
          break;
        }
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader, 1000 + t);
  for (size_t seg = kInitial; seg < kInitial + kAppended; ++seg) {
    write_segment(seg);
    published.store(seg + 1, std::memory_order_release);
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(reads.load(), 4u * 200u);
}

// The rollback contract: abandoning a partial segment drops that segment
// only. The segment before it survives, whether still staged or already
// on disk, and the next segment starts where the abandoned one did.
TEST(SpillFile, AbandonTailKeepsEarlierSegments) {
  // A small abandoned segment stays staged; a large one sends its head to
  // disk with a full staging buffer.
  for (size_t b_bytes : {size_t{10000}, SpillFile::kBufBytes + 5000}) {
    SpillFile f;
    ASSERT_TRUE(f.Create(SpillDir()).ok());
    auto segment = [](size_t seg, size_t bytes) {
      std::vector<char> v(bytes);
      for (size_t i = 0; i < bytes; ++i) v[i] = SegmentByte(seg, i);
      return v;
    };
    const std::vector<char> a = segment(0, 5000);
    const std::vector<char> b = segment(1, b_bytes);
    const std::vector<char> c = segment(2, 70000);

    ASSERT_TRUE(f.Append(a.data(), a.size()).ok());
    ASSERT_TRUE(f.Pad().ok());
    const uint64_t b_offset = f.size();
    EXPECT_EQ(b_offset % SpillFile::kAlign, 0u);
    ASSERT_TRUE(f.Append(b.data(), b.size()).ok());
    f.AbandonTail();
    EXPECT_EQ(f.size(), b_offset) << "B of " << b_bytes << " bytes";
    ASSERT_TRUE(f.Append(c.data(), c.size()).ok());
    ASSERT_TRUE(f.Pad().ok());
    ASSERT_TRUE(f.FinishWrites().ok());

    std::vector<char> back(a.size());
    ASSERT_TRUE(f.ReadAt(0, back.data(), back.size()).ok());
    EXPECT_EQ(back, a) << "B of " << b_bytes << " bytes";
    back.resize(c.size());
    ASSERT_TRUE(f.ReadAt(b_offset, back.data(), back.size()).ok());
    EXPECT_EQ(back, c) << "B of " << b_bytes << " bytes";
  }
}

TEST(SpillFile, CreateInMissingDirectoryFails) {
  SpillFile f;
  Status s = f.Create("/nonexistent-spill-dir-for-test");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(f.is_open());
}

TEST(SpillFile, FilesAreUnlinkedAtCreation) {
  // A freshly created spill file must not be reachable by name: nothing
  // may be left behind in the directory on any unwind path.
  char tmpl[] = "/tmp/cea_spill_dir_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  std::string dir = tmpl;
  {
    SpillFile f;
    ASSERT_TRUE(f.Create(dir).ok());
    ASSERT_TRUE(f.Append("x", 1).ok());
    // The directory is empty even while the file is open and written to.
    ASSERT_EQ(0, ::rmdir(dir.c_str()))
        << "spill file left a directory entry behind";
  }
}

// ---------------------------------------------------------------------------
// SpillManager

TEST(SpillManager, SegmentRoundTripConcatenatesRuns) {
  StateLayout layout({{AggFn::kCount, -1}, {AggFn::kSum, 0}});
  SpillManager::Config config;
  config.dir = SpillDir();
  SpillFile file;
  SpillManager mgr(config, /*key_words=*/1, layout, /*control=*/nullptr,
                   &file);

  // Two runs into one stream, sizes chosen to cross chunk boundaries.
  const size_t n1 = 700, n2 = 1300;
  ::cea::Run a(1, layout), b(1, layout);
  ASSERT_EQ(layout.total_words, 2);  // count: 1 word, sum: 1 word
  auto fill = [&](::cea::Run* r, size_t n, uint64_t salt) {
    for (size_t i = 0; i < n; ++i) {
      r->key_cols[0].Append(salt + i);
      r->states[0].Append(2 * (salt + i));
      r->states[1].Append(5 * (salt + i));
    }
    r->distinct = true;
  };
  fill(&a, n1, 1000);
  fill(&b, n2, 900000);

  const uint64_t key = SpillManager::PartitionKey(7, 42);
  EXPECT_FALSE(mgr.HasSpilled(key));
  const uint64_t written = SpillFile::GetTotals().bytes_written;
  mgr.SpillRun(key, &a);
  mgr.SpillRun(key, &b);
  EXPECT_TRUE(mgr.HasSpilled(key));
  // Both segments fit the staging buffer: nothing is written yet.
  EXPECT_EQ(SpillFile::GetTotals().bytes_written, written);
  // Spilled runs are emptied (chunks back to the pool) but stay usable.
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.distinct);
  EXPECT_GT(mgr.bytes_written(), 0u);

  mgr.EnqueueBucket(key, /*level=*/3);
  std::vector<SpillManager::PendingBucket> wave = mgr.TakeWave(1);
  ASSERT_EQ(wave.size(), 1u);
  const SpillManager::PendingBucket desc = wave[0];
  EXPECT_EQ(desc.key, key);
  EXPECT_EQ(desc.level, 3);
  EXPECT_EQ(desc.rows, n1 + n2);

  ::cea::Run out(1, layout);
  mgr.Restore(desc, &out);
  // Restore flushed the staged segments before reading them.
  EXPECT_GE(file.flushed_size(), file.size());
  ASSERT_EQ(out.size(), n1 + n2);
  // Restored rows must be non-distinct: one group's rows may straddle the
  // segment boundary.
  EXPECT_FALSE(out.distinct);
  std::vector<uint64_t> keys = out.key_cols[0].ToVector();
  std::vector<uint64_t> sums = out.states[1].ToVector();
  for (size_t i = 0; i < n1; ++i) {
    ASSERT_EQ(keys[i], 1000 + i) << "row " << i;
    ASSERT_EQ(sums[i], 5 * (1000 + i)) << "row " << i;
  }
  for (size_t i = 0; i < n2; ++i) {
    ASSERT_EQ(keys[n1 + i], 900000 + i) << "row " << n1 + i;
  }
  EXPECT_EQ(mgr.bytes_read(), mgr.bytes_written());
  EXPECT_EQ(mgr.buckets_restored(), 1u);
  EXPECT_TRUE(mgr.TakeWave(1).empty());
}

TEST(SpillManager, RestoreWaveSizeFollowsFreeRoom) {
  const std::vector<uint64_t> bytes = {100, 200, 300, 400, 500, 600};
  const uint64_t unlimited = std::numeric_limits<uint64_t>::max();
  // Unlimited budget: one bucket per worker, or every queued bucket.
  EXPECT_EQ(RestoreWaveSize(bytes, unlimited, 4), 4u);
  EXPECT_EQ(RestoreWaveSize({100, 200}, unlimited, 4), 2u);
  EXPECT_EQ(RestoreWaveSize({}, unlimited, 4), 0u);
  // Free room below twice the first two buckets: exactly one.
  EXPECT_EQ(RestoreWaveSize(bytes, 2 * (100 + 200) - 1, 4), 1u);
  // Each further bucket needs twice the wave's summed bytes.
  EXPECT_EQ(RestoreWaveSize(bytes, 2 * (100 + 200), 4), 2u);
  EXPECT_EQ(RestoreWaveSize(bytes, 2 * (100 + 200 + 300), 4), 3u);
  // The first bucket is always admitted, however little room is left.
  EXPECT_EQ(RestoreWaveSize(bytes, 0, 4), 1u);
  EXPECT_EQ(RestoreWaveSize({uint64_t{1} << 40}, 0, 4), 1u);
  EXPECT_EQ(RestoreWaveSize(bytes, unlimited, 1), 1u);
}

TEST(SpillManager, TakeWaveTakesOneBucketPerWorkerWithoutLimit) {
  BudgetGuard guard;
  MemoryBudget::Global().SetLimit(0);
  StateLayout layout({{AggFn::kCount, -1}});
  SpillManager::Config config;
  config.dir = SpillDir();
  SpillFile file;
  SpillManager mgr(config, 1, layout, nullptr, &file);
  for (uint32_t p = 0; p < 6; ++p) {
    ::cea::Run r(1, layout);
    r.key_cols[0].Append(p);
    r.states[0].Append(1);
    const uint64_t key = SpillManager::PartitionKey(1, p);
    mgr.SpillRun(key, &r);
    mgr.EnqueueBucket(key, /*level=*/1);
  }
  EXPECT_EQ(mgr.TakeWave(4).size(), 4u);
  EXPECT_EQ(mgr.TakeWave(4).size(), 2u);
  EXPECT_TRUE(mgr.TakeWave(4).empty());
}

TEST(SpillManager, ShouldSpillNeverFiresWithoutLimit) {
  BudgetGuard guard;
  MemoryBudget::Global().SetLimit(0);
  StateLayout layout({{AggFn::kCount, -1}});
  SpillManager::Config config;
  config.dir = SpillDir();
  config.threshold = 0.01;
  SpillFile file;
  SpillManager mgr(config, 1, layout, nullptr, &file);
  EXPECT_FALSE(mgr.ShouldSpill());
}

// ---------------------------------------------------------------------------
// Operator: degrade gracefully instead of rejecting

// The ISSUE 10 acceptance scenario: a group-by whose run-store working
// set is several times the memory budget completes and matches the
// scalar reference, instead of failing with kResourceExhausted.
TEST(SpillOperator, WorkingSetSeveralTimesBudgetCompletes) {
  const uint64_t n = 1 << 22;  // ~64 MiB of key+count runs at 16 B/row
  std::vector<uint64_t> keys = UniformKeys(n, n, 77);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  BudgetGuard guard;
  guard.SetHeadroom(16 << 20);  // working set >= 4x the headroom

  AggregationOptions o = SpillOptions(/*threads=*/2, /*threshold=*/0.2);
  ExecStats stats;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input, o, &stats);
  EXPECT_GT(stats.spilled_bytes, 0u);
  EXPECT_GT(stats.spill_read_bytes, 0u);
  EXPECT_GT(stats.spill_files, 0u);
  EXPECT_EQ(FormatExecStats(stats).find("spill:") != std::string::npos, true);
}

// Same shape without a spill directory: the budget trips, the execution
// fails with kResourceExhausted — and the unwind must not leak a single
// chunk. Satellite 1's regression: repeat the failed Execute several
// times and require (a) every allocated chunk was returned and (b) the
// budget's used() stays consistent, then verify an unlimited rerun on
// the same operator still matches the reference.
TEST(SpillOperator, ExhaustionUnwindLeaksNothing) {
  const uint64_t n = 1 << 21;
  std::vector<uint64_t> keys = UniformKeys(n, n, 5);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  BudgetGuard guard;
  guard.SetHeadroom(6 << 20);  // far below the ~32 MiB working set

  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions(2));
  for (int round = 0; round < 6; ++round) {
    ChunkPool::Stats before = ChunkPool::Global().GetStats();
    ResultTable result;
    Status s = op.Execute(input, &result, nullptr);
    ASSERT_FALSE(s.ok()) << "round " << round;
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
        << "round " << round << ": " << s.message();
    // Workers park freed chunks in thread caches; flush so the pool-level
    // balance below sees them (callers of Free already ran — frees_ is
    // counted before caching).
    ChunkPool::Global().FlushThreadCache();
    ChunkPool::Stats after = ChunkPool::Global().GetStats();
    uint64_t allocated = (after.fresh_chunks - before.fresh_chunks) +
                         (after.recycled_chunks - before.recycled_chunks) +
                         (after.oversize_chunks - before.oversize_chunks);
    uint64_t freed = after.frees - before.frees;
    EXPECT_EQ(allocated, freed)
        << "round " << round << ": chunks leaked across the unwind";
    EXPECT_LE(MemoryBudget::Global().used(), MemoryBudget::Global().limit())
        << "round " << round << ": unwind left the budget over its limit";
  }

  // The operator must stay reusable: unlimited rerun matches reference.
  MemoryBudget::Global().SetLimit(0);
  ResultTable got;
  ASSERT_TRUE(op.Execute(input, &got, nullptr).ok());
  ResultTable expect = ReferenceAggregate(input, {{AggFn::kCount, -1}});
  ExpectResultsMatch(&got, expect);
}

TEST(SpillOperator, SpillStatsStayZeroWithoutPressure) {
  std::vector<uint64_t> keys = UniformKeys(100000, 1000, 3);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  // Unlimited budget: a configured spill dir must never spill.
  BudgetGuard guard;
  MemoryBudget::Global().SetLimit(0);
  ExecStats stats;
  ExpectMatchesReference({{AggFn::kCount, -1}}, input,
                         SpillOptions(2, 0.5), &stats);
  EXPECT_EQ(stats.spilled_bytes, 0u);
  EXPECT_EQ(stats.spill_files, 0u);
}

// FinishStream drains spilled buckets too: a streamed group-by under a
// small budget, restored in waves by four workers, matches the reference.
TEST(SpillOperator, StreamingFinishDrainsSpilledBuckets) {
  const uint64_t n = 1 << 20;  // ~40 MiB of runs at 40 B/row
  std::vector<uint64_t> keys = UniformKeys(n, n / 2, 91);
  Column values = GenerateValues(keys.size(), 92);
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = keys.size();
  const std::vector<AggregateSpec> specs = {
      {AggFn::kCount, -1}, {AggFn::kSum, 0}, {AggFn::kAvg, 0}};
  ResultTable expect = ReferenceAggregate(input, specs);

  BudgetGuard guard;
  // Meant as room for the first chunk of every partition column (256
  // partitions x 5 columns x 4 KiB) on each worker. It does not suffice
  // in a fresh process: run alone (--gtest_filter=
  // 'SpillOperator.StreamingFinish*'), the stream fails with "memory
  // budget exceeded" (~31 MiB in use + a 2 MiB slab > 32 MiB). It passes
  // in the full binary only because earlier tests leave free chunks in
  // the pool, and reusing them charges nothing new against the budget.
  // ROADMAP item 3 (per-query memory accounting) lists passing alone as
  // one of its tests.
  guard.SetHeadroom(32 << 20);
  obs::ObsContext::Options oo;
  oo.counters = false;
  obs::ObsContext obs(oo);
  AggregationOptions o = SpillOptions(/*threads=*/4, /*threshold=*/0.1);
  o.obs = &obs;
  AggregationOperator op(specs, o);
  ASSERT_TRUE(op.BeginStream().ok());
  constexpr size_t kBatch = size_t{1} << 16;
  for (size_t off = 0; off < n; off += kBatch) {
    InputTable batch;
    batch.keys = keys.data() + off;
    batch.values.push_back(values.data() + off);
    batch.num_rows = std::min<size_t>(kBatch, n - off);
    Status cs = op.ConsumeBatch(batch);
    ASSERT_TRUE(cs.ok()) << "batch at " << off << ": " << cs.message();
  }
  ResultTable got;
  ExecStats stats;
  Status s = op.FinishStream(&got, &stats);
  ASSERT_TRUE(s.ok()) << s.message();
  ExpectResultsMatch(&got, expect);

  EXPECT_GT(stats.spilled_bytes, 0u);
  const obs::RuntimeProfile* spill = obs.profile().FindChild("spill");
  ASSERT_NE(spill, nullptr);
  EXPECT_GT(spill->FindCounter("buckets_restored")->value(), 1);
  EXPECT_GT(spill->FindCounter("restore_time")->value(), 0);
  EXPECT_GT(spill->FindCounter("write_wait_time")->value(), 0);
  EXPECT_GT(spill->FindCounter("write_time")->value(), 0);
  // One "restore" span per restored bucket.
  const std::string trace = obs.trace().ToChromeJson();
  size_t restore_spans = 0;
  for (size_t pos = 0;
       (pos = trace.find("\"name\":\"restore\"", pos)) != std::string::npos;
       ++pos) {
    ++restore_spans;
  }
  EXPECT_EQ(static_cast<int64_t>(restore_spans),
            spill->FindCounter("buckets_restored")->value());
}

// Entries in this process's descriptor table.
size_t OpenFds() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator()));
}

// One operator keeps one spill file across executions, a failed one
// included: each execution rewinds and overwrites it, and destroying the
// operator closes it.
TEST(SpillOperator, OneFileServesEveryExecutionOfAnOperator) {
  std::vector<uint64_t> keys = UniformKeys(1 << 18, 1 << 17, 31);
  Column values = GenerateValues(keys.size(), 32);
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = keys.size();
  const std::vector<AggregateSpec> specs = {{AggFn::kCount, -1},
                                            {AggFn::kSum, 0}};
  const ResultTable expect = ReferenceAggregate(input, specs);

  BudgetGuard guard;
  // Room for the first chunk of every partition column of both workers'
  // contexts (2 x 256 partitions x 3 columns x 4 KiB) in a fresh process.
  guard.SetHeadroom(16 << 20);
  const size_t fds = OpenFds();
  const uint64_t files = SpillFile::GetTotals().files_created;
  std::atomic<bool> fail{false};
  AggregationOptions o = SpillOptions(/*threads=*/2, /*threshold=*/0.2);
  o.fault_hook = [&fail](int level) {
    if (level >= 1 && fail.load()) throw std::runtime_error("injected");
  };
  {
    AggregationOperator op(specs, o);
    for (int round = 0; round < 3; ++round) {
      fail.store(round == 1);
      const uint64_t written = SpillFile::GetTotals().bytes_written;
      ResultTable got;
      ExecStats stats;
      Status s = op.Execute(input, &got, &stats);
      if (round == 1) {
        EXPECT_FALSE(s.ok());
        // Level 0 spilled whole buffers before level 1 failed.
        EXPECT_GT(SpillFile::GetTotals().bytes_written, written);
      } else {
        ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.message();
        ExpectResultsMatch(&got, expect);
        EXPECT_EQ(stats.spill_files, 1u) << "round " << round;
        EXPECT_NE(FormatExecStats(stats).find("spill:"), std::string::npos)
            << "round " << round;
      }
      EXPECT_EQ(OpenFds(), fds + 1) << "round " << round;
    }
  }
  EXPECT_EQ(OpenFds(), fds);
  EXPECT_EQ(SpillFile::GetTotals().files_created, files + 1);
}

// ---------------------------------------------------------------------------
// Differential fuzz: spilling on vs off, 48 seeds

TEST(SpillFuzz, DifferentialAgainstUnlimitedRun48Seeds) {
  const std::vector<AggregateSpec> specs = {
      {AggFn::kCount, -1}, {AggFn::kSum, 0}, {AggFn::kMin, 0}};
  for (uint64_t seed = 0; seed < 48; ++seed) {
    GenParams gp;
    gp.n = 60000 + (seed % 7) * 9000;
    gp.k = 1 + ((seed * 2654435761u) % gp.n);
    gp.seed = seed + 1;
    gp.dist = (seed % 3 == 0) ? Distribution::kZipf : Distribution::kUniform;
    std::vector<uint64_t> keys = GenerateKeys(gp);
    Column values = GenerateValues(keys.size(), seed + 500);
    InputTable input;
    input.keys = keys.data();
    input.values.push_back(values.data());
    input.num_rows = keys.size();

    // Reference: unlimited budget, no spill machinery.
    ResultTable expect = ReferenceAggregate(input, specs);

    // Cancellation seeds: every 8th seed cancels from a pass task at
    // recursion level >= 1 — mid-execution, possibly mid-spill. The only
    // acceptable outcomes are clean completion with the right answer (the
    // cancel raced the finish) or kCancelled; either way the operator and
    // the budget must be intact for the next seed.
    const bool cancel_seed = seed % 8 == 5;

    BudgetGuard guard;
    guard.SetHeadroom(3 << 20);  // tiny: forces the spill path
    // Odd seeds (the cancellation seeds among them) run four workers, so
    // restore waves hold several buckets at once.
    AggregationOptions o =
        SpillOptions(/*threads=*/seed % 2 == 0 ? 2 : 4, /*threshold=*/0.1);
    CancellationSource source;
    if (cancel_seed) {
      o.cancel_token = source.token();
      o.fault_hook = [&source](int level) {
        if (level >= 1) source.Cancel("fuzz mid-spill cancel");
      };
    }
    AggregationOperator op(specs, o);
    ResultTable got;
    Status s = op.Execute(input, &got, nullptr);
    if (cancel_seed && !s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCancelled)
          << "seed " << seed << ": " << s.message();
      continue;
    }
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.message();
    ExpectResultsMatch(&got, expect);
  }
}

}  // namespace
}  // namespace cea
