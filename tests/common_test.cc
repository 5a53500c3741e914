// Unit tests for cea/common: bit utilities, RNG, machine detection, flags.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cea/common/bits.h"
#include "cea/common/flags.h"
#include "cea/common/machine.h"
#include "cea/common/random.h"
#include "cea/common/status.h"

namespace cea {
namespace {

TEST(Bits, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(Bits, CeilPowerOfTwo) {
  EXPECT_EQ(CeilPowerOfTwo(1), 1u);
  EXPECT_EQ(CeilPowerOfTwo(2), 2u);
  EXPECT_EQ(CeilPowerOfTwo(3), 4u);
  EXPECT_EQ(CeilPowerOfTwo(1023), 1024u);
  EXPECT_EQ(CeilPowerOfTwo(1024), 1024u);
  EXPECT_EQ(CeilPowerOfTwo(1025), 2048u);
}

TEST(Bits, FloorPowerOfTwo) {
  EXPECT_EQ(FloorPowerOfTwo(1), 1u);
  EXPECT_EQ(FloorPowerOfTwo(3), 2u);
  EXPECT_EQ(FloorPowerOfTwo(1024), 1024u);
  EXPECT_EQ(FloorPowerOfTwo(1500), 1024u);
}

TEST(Bits, Logs) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(uint64_t{1} << 40), 40);
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(Bits, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(RoundUp(13, 8), 16u);
  EXPECT_EQ(RoundUp(16, 8), 16u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(Rng, BoundedStaysInBound) {
  Rng rng(123);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(99);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    mean += d;
  }
  mean /= 10000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Machine, DetectsSaneValues) {
  MachineInfo info = DetectMachine();
  EXPECT_GE(info.hardware_threads, 1);
  EXPECT_GE(info.l3_bytes_per_thread, size_t{1} << 20);
  EXPECT_GE(info.l3_bytes_total, info.l3_bytes_per_thread);
}

TEST(Status, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());
  Status err = Status::InvalidArgument("bad column");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "bad column");
}

TEST(Flags, FirstUnknownReportsTheFirstUnlistedArgument) {
  char prog[] = "prog", a[] = "--n=5", b[] = "--csv", c[] = "--nn=1",
       d[] = "x";
  char* argv[] = {prog, a, b, c, d};
  EXPECT_EQ(Flags(3, argv).FirstUnknown({"n", "csv"}), "");
  EXPECT_EQ(Flags(5, argv).FirstUnknown({"n", "csv"}), "--nn=1");
  EXPECT_EQ(Flags(5, argv).FirstUnknown({"n", "csv", "nn"}), "x");
  EXPECT_EQ(Flags(3, argv).FirstUnknown({"n"}), "--csv");
}

TEST(Flags, LookupParsesBareAndValuedFlags) {
  char prog[] = "prog", a[] = "--csv", b[] = "--nn=7", c[] = "--n=42";
  char* argv[] = {prog, a, b, c};
  const Flags bare_and_longer(3, argv);  // --csv --nn=7
  EXPECT_EQ(bare_and_longer.GetString("csv", ""), "1");
  EXPECT_EQ(bare_and_longer.GetUint("nn", 0), 7u);
  // Neither a longer name nor a shorter prefix answers for another flag.
  EXPECT_FALSE(bare_and_longer.Has("n"));
  EXPECT_EQ(bare_and_longer.GetUint("n", 3), 3u);
  EXPECT_FALSE(bare_and_longer.Has("c"));
  EXPECT_EQ(Flags(4, argv).GetUint("n", 0), 42u);
}

}  // namespace
}  // namespace cea
