// Unit tests for cea/hash: MurmurHash2, mixers, key hashing and radix
// digit extraction.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "cea/common/random.h"
#include "cea/hash/key_hash.h"
#include "cea/hash/murmur.h"
#include "cea/hash/radix.h"

namespace cea {
namespace {

TEST(Murmur, SpecializedMatchesGeneric) {
  // MurmurHash64(key) must equal MurmurHash64A over the 8-byte encoding.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t key = rng.Next();
    uint64_t bytes_hash = MurmurHash64A(&key, sizeof(key), 0);
    EXPECT_EQ(MurmurHash64(key), bytes_hash);
  }
}

TEST(Murmur, SeedChangesValue) {
  EXPECT_NE(MurmurHash64(42, 0), MurmurHash64(42, 1));
}

TEST(Murmur, GenericHandlesAllTailLengths) {
  const char data[16] = "abcdefghijklmno";
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 15; ++len) {
    hashes.insert(MurmurHash64A(data, len, 7));
  }
  // All prefixes hash differently (no accidental collisions here).
  EXPECT_EQ(hashes.size(), 16u);
}

TEST(Murmur, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip ~half the output bits.
  Rng rng(2);
  double total_flips = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    uint64_t key = rng.Next();
    int bit = static_cast<int>(rng.NextBounded(64));
    uint64_t h1 = MurmurHash64(key);
    uint64_t h2 = MurmurHash64(key ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(h1 ^ h2);
  }
  double mean_flips = total_flips / trials;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(Fmix, InverseRoundTrips) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Next();
    EXPECT_EQ(Fmix64Inverse(Fmix64(x)), x);
    EXPECT_EQ(Fmix64(Fmix64Inverse(x)), x);
  }
}

TEST(Murmur, InverseRoundTrips) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Next();
    EXPECT_EQ(MurmurHash64Inverse(MurmurHash64(x)), x);
    EXPECT_EQ(MurmurHash64(MurmurHash64Inverse(x)), x);
  }
}

TEST(Murmur, InverseRoundTripsWithSeed) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    uint64_t x = rng.Next();
    uint64_t seed = rng.Next();
    EXPECT_EQ(MurmurHash64Inverse(MurmurHash64(x, seed), seed), x);
  }
}

TEST(Murmur, InverseConstructsKeyForChosenHash) {
  // The use case: tests steer keys into a chosen radix block and start
  // slot by inverting the hash they want.
  const uint64_t wanted_hash = (uint64_t{5} << 56) | 61;
  uint64_t key = MurmurHash64Inverse(wanted_hash);
  EXPECT_EQ(MurmurHash64(key), wanted_hash);
  EXPECT_EQ(RadixDigit(wanted_hash, 0), 5u);
}

TEST(Radix, DigitExtractsBytesMsdFirst) {
  uint64_t h = 0x0123456789abcdefULL;
  EXPECT_EQ(RadixDigit(h, 0), 0x01u);
  EXPECT_EQ(RadixDigit(h, 1), 0x23u);
  EXPECT_EQ(RadixDigit(h, 2), 0x45u);
  EXPECT_EQ(RadixDigit(h, 7), 0xefu);
}

TEST(Radix, DigitRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = rng.Next();
    for (int level = 0; level < kMaxRadixLevel; ++level) {
      EXPECT_LT(RadixDigit(h, level), kFanOut);
    }
  }
}

TEST(Radix, DigitsReassembleHash) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    uint64_t h = rng.Next();
    uint64_t rebuilt = 0;
    for (int level = 0; level < kMaxRadixLevel; ++level) {
      rebuilt = (rebuilt << kRadixBits) | RadixDigit(h, level);
    }
    EXPECT_EQ(rebuilt, h);
  }
}

TEST(Radix, SubDigitBitsDropsConsumedPrefix) {
  uint64_t h = 0xffffffffffffffffULL;
  EXPECT_EQ(SubDigitBits(h, 0), h >> 8);
  EXPECT_EQ(SubDigitBits(h, 6), 0xffULL);
  EXPECT_EQ(SubDigitBits(h, 7), 0u);
}

TEST(Murmur, IsBijectiveForFixedWidthKeys) {
  // For 8-byte keys every step of MurmurHash64 is invertible, so distinct
  // keys always produce distinct hashes. Spot-check with a dense range.
  std::set<uint64_t> hashes;
  for (uint64_t k = 0; k < 10000; ++k) {
    hashes.insert(MurmurHash64(k));
  }
  EXPECT_EQ(hashes.size(), 10000u);
}

TEST(KeyHash, BatchMatchesRowHash) {
  // HashKeyColumnsBatch must equal HashKey of the gathered row at every key
  // width, for lengths around InsertKeys' 16-row block and PartitionRange's
  // 256-row stretch, from unaligned start rows into unaligned outputs, and
  // must write nothing outside out[0, n).
  constexpr uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  constexpr size_t kMaxLen = 1000;
  constexpr size_t kMaxFrom = 3;
  Rng rng(4);
  std::vector<std::vector<uint64_t>> cols(kMaxKeyWords);
  std::vector<const uint64_t*> key_cols;
  for (std::vector<uint64_t>& c : cols) {
    c.resize(kMaxFrom + kMaxLen);
    for (uint64_t& v : c) v = rng.Next();
    key_cols.push_back(c.data());
  }
  for (int kw = 1; kw <= kMaxKeyWords; ++kw) {
    for (size_t n : {0, 1, 15, 16, 17, 255, 256, 257, 1000}) {
      for (size_t from : {0, 1, 3}) {
        // `from` sentinels before the output and one after it.
        std::vector<uint64_t> buf(from + n + 1, kSentinel);
        HashKeyColumnsBatch(key_cols.data(), kw, from, n, buf.data() + from);
        for (size_t i = 0; i < n; ++i) {
          uint64_t key[kMaxKeyWords];
          for (int w = 0; w < kw; ++w) key[w] = cols[w][from + i];
          ASSERT_EQ(buf[from + i], HashKey(key, kw))
              << "kw=" << kw << " n=" << n << " from=" << from << " i=" << i;
          if (kw == 1) {
            ASSERT_EQ(buf[from + i], MurmurHash64(key[0]));
          }
        }
        for (size_t i = 0; i < from; ++i) ASSERT_EQ(buf[i], kSentinel);
        ASSERT_EQ(buf[from + n], kSentinel)
            << "kw=" << kw << " n=" << n << " from=" << from;
      }
    }
  }
}

TEST(MultiplicativeHash, SpreadsLowBitsPoorly) {
  // Documenting why MurmurHash2 replaced it (Section 6.4): sequential keys
  // keep structure in the low bits of a multiplicative hash's *top* digit
  // far less than in Murmur. Just verify determinism and non-triviality.
  EXPECT_NE(MultiplicativeHash(1), MultiplicativeHash(2));
  EXPECT_EQ(MultiplicativeHash(7), MultiplicativeHash(7));
}

}  // namespace
}  // namespace cea
