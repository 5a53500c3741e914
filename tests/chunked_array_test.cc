// Unit tests for ChunkedArray, the two-level run storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "cea/common/machine.h"
#include "cea/common/random.h"
#include "cea/mem/chunked_array.h"

namespace cea {
namespace {

TEST(ChunkedArray, StartsEmpty) {
  ChunkedArray a;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.allocated_bytes(), 0u);
  EXPECT_TRUE(a.ToVector().empty());
}

TEST(ChunkedArray, SingleAppends) {
  ChunkedArray a;
  for (uint64_t i = 0; i < 100; ++i) a.Append(i * 3);
  EXPECT_EQ(a.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(a.At(i), i * 3);
}

TEST(ChunkedArray, CrossesChunkBoundaries) {
  ChunkedArray a;
  const size_t n = ChunkedArray::kMaxChunkElems * 3 + 17;
  for (uint64_t i = 0; i < n; ++i) a.Append(i);
  EXPECT_EQ(a.size(), n);
  std::vector<uint64_t> v = a.ToVector();
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(v[i], i);
}

TEST(ChunkedArray, BulkAppendMatchesElementwise) {
  std::vector<uint64_t> src(20000);
  std::iota(src.begin(), src.end(), 7);
  ChunkedArray bulk;
  bulk.AppendBulk(src.data(), src.size());
  ChunkedArray single;
  for (uint64_t v : src) single.Append(v);
  EXPECT_EQ(bulk.ToVector(), single.ToVector());
}

TEST(ChunkedArray, LineAppend) {
  ChunkedArray a;
  uint64_t line[ChunkedArray::kLineElems];
  for (int rep = 0; rep < 2000; ++rep) {
    for (size_t j = 0; j < ChunkedArray::kLineElems; ++j) {
      line[j] = static_cast<uint64_t>(rep) * 8 + j;
    }
    a.AppendLine(line);
  }
  EXPECT_EQ(a.size(), 2000 * ChunkedArray::kLineElems);
  std::vector<uint64_t> v = a.ToVector();
  for (size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], i);
}

TEST(ChunkedArray, StreamedLinesCopyExactBytes) {
  // The NT-store path behind AppendLine: whole lines land byte-exact from
  // a possibly misaligned source, and a canary line on each side of the
  // (line-aligned) destination stays untouched.
  Rng rng(6);
  for (size_t n_lines : {0, 1, 2, 3, 7, 17}) {
    const size_t bytes = n_lines * kCacheLineBytes;
    const size_t alloc = bytes + 2 * kCacheLineBytes;
    auto* dst = static_cast<unsigned char*>(
        std::aligned_alloc(kCacheLineBytes, alloc));
    ASSERT_NE(dst, nullptr);
    std::vector<unsigned char> src(bytes + 3);
    for (auto& b : src) b = static_cast<unsigned char>(rng.Next());
    for (size_t src_off : {0, 3}) {
      for (bool per_line : {true, false}) {
        std::memset(dst, 0xab, alloc);
        if (per_line) {
          for (size_t l = 0; l < n_lines; ++l) {
            StreamStoreLine(dst + (l + 1) * kCacheLineBytes,
                            src.data() + src_off + l * kCacheLineBytes);
          }
          StreamFence();
        } else {
          StreamMemcpy(dst + kCacheLineBytes, src.data() + src_off, bytes);
        }
        ASSERT_EQ(std::memcmp(dst + kCacheLineBytes, src.data() + src_off,
                              bytes),
                  0)
            << "n_lines=" << n_lines << " src_off=" << src_off;
        for (size_t i = 0; i < kCacheLineBytes; ++i) {
          ASSERT_EQ(dst[i], 0xab) << "leading canary, i=" << i;
          ASSERT_EQ(dst[kCacheLineBytes + bytes + i], 0xab)
              << "trailing canary, i=" << i;
        }
      }
    }
    std::free(dst);
  }
}

TEST(ChunkedArray, MixedScalarAndLineAppends) {
  // Scalar appends may leave the tail unaligned; AppendLine must cope.
  ChunkedArray a;
  std::vector<uint64_t> expect;
  Rng rng(11);
  uint64_t next = 0;
  for (int step = 0; step < 500; ++step) {
    if (rng.NextBounded(2) == 0) {
      uint64_t line[ChunkedArray::kLineElems];
      for (auto& e : line) e = next++;
      a.AppendLine(line);
      for (auto e : line) expect.push_back(e);
    } else {
      size_t n = 1 + rng.NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        a.Append(next);
        expect.push_back(next++);
      }
    }
  }
  EXPECT_EQ(a.ToVector(), expect);
}

TEST(ChunkedArray, ChunksAreCacheLineAligned) {
  ChunkedArray a;
  for (uint64_t i = 0; i < ChunkedArray::kMaxChunkElems * 2; ++i) a.Append(i);
  a.ForEachChunk([](const uint64_t* data, size_t n) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(data) % kCacheLineBytes, 0u);
  });
}

TEST(ChunkedArray, ChunkSizesGrowGeometrically) {
  ChunkedArray a;
  for (uint64_t i = 0; i < 100000; ++i) a.Append(i);
  std::vector<size_t> sizes;
  a.ForEachChunk([&](const uint64_t*, size_t n) { sizes.push_back(n); });
  ASSERT_GE(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], ChunkedArray::kMinChunkElems);
  EXPECT_EQ(sizes[1], ChunkedArray::kMinChunkElems * 2);
  for (size_t s : sizes) EXPECT_LE(s, ChunkedArray::kMaxChunkElems);
}

TEST(ChunkedArray, DeterministicChunkBoundaries) {
  // Arrays receiving the same total element count through different
  // append call patterns must have identical chunk boundaries — the
  // morsel builder relies on this invariant.
  ChunkedArray a, b, c;
  std::vector<uint64_t> payload(30000, 1);
  // a: elementwise; b: bulk in awkward pieces; c: two bulk appends larger
  // than the chunks they land in, as a spill restore makes them.
  for (uint64_t v : payload) a.Append(v);
  size_t off = 0;
  Rng rng(3);
  while (off < payload.size()) {
    size_t n = std::min<size_t>(1 + rng.NextBounded(7), payload.size() - off);
    b.AppendBulk(payload.data() + off, n);
    off += n;
  }
  c.AppendBulk(payload.data(), 1072);
  c.AppendBulk(payload.data() + 1072, payload.size() - 1072);
  std::vector<size_t> sa, sb, sc;
  a.ForEachChunk([&](const uint64_t*, size_t n) { sa.push_back(n); });
  b.ForEachChunk([&](const uint64_t*, size_t n) { sb.push_back(n); });
  c.ForEachChunk([&](const uint64_t*, size_t n) { sc.push_back(n); });
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa, sc);
}

TEST(ChunkedArray, CopyTo) {
  ChunkedArray a;
  for (uint64_t i = 0; i < 5000; ++i) a.Append(i ^ 0xdeadbeef);
  std::vector<uint64_t> dst(a.size());
  a.CopyTo(dst.data());
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(dst[i], i ^ 0xdeadbeef);
}

TEST(ChunkedArray, MoveTransfersOwnership) {
  ChunkedArray a;
  for (uint64_t i = 0; i < 1000; ++i) a.Append(i);
  ChunkedArray b = std::move(a);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.At(999), 999u);

  ChunkedArray c;
  c.Append(5);
  c = std::move(b);
  EXPECT_EQ(c.size(), 1000u);
}

TEST(ChunkedArray, ClearReleasesMemory) {
  ChunkedArray a;
  for (uint64_t i = 0; i < 10000; ++i) a.Append(i);
  EXPECT_GT(a.allocated_bytes(), 0u);
  a.Clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.allocated_bytes(), 0u);
  a.Append(1);  // usable after Clear
  EXPECT_EQ(a.At(0), 1u);
}

TEST(ChunkedArray, AllocatedBytesTracksCapacity) {
  ChunkedArray a;
  a.Append(1);
  EXPECT_EQ(a.allocated_bytes(),
            ChunkedArray::kMinChunkElems * sizeof(uint64_t));
}

}  // namespace
}  // namespace cea
