// Tests for common utilities and the discrete-event simulator.
#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(13);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (auto idx : p) {
    ASSERT_LT(idx, 50u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child should not replay the parent's future values.
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Split("a,b,,c", ',')[2], "");
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  auto ws = SplitWhitespace("  alpha\tbeta  gamma ");
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[1], "beta");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_TRUE(EqualsIgnoreCase("Content-Length", "content-length"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(StartsWith("/admin/x", "/admin"));
  EXPECT_TRUE(EndsWith("file.rules", ".rules"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

TEST(StringsTest, ParseUint) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(ParseUint("", v));
  EXPECT_FALSE(ParseUint("12x", v));
  EXPECT_FALSE(ParseUint("-3", v));
  EXPECT_FALSE(ParseUint("99999999999999999999999", v));  // overflow
  // A wrap that lands above the previous value: 3e19 mod 2^64.
  EXPECT_FALSE(ParseUint("30000000000000000000", v));
  EXPECT_FALSE(ParseUint("18446744073709551616", v));  // UINT64_MAX + 1
  EXPECT_TRUE(ParseUint("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(BytesTest, WriterReaderRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0102030405060708ull);
  w.Str("xyz");
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.Str(3), "xyz");
  EXPECT_TRUE(r.Ok());
  EXPECT_EQ(r.Remaining(), 0u);
}

TEST(BytesTest, ReaderOverrunSetsError) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  r.U32();
  EXPECT_FALSE(r.Ok());
}

TEST(BytesTest, InternetChecksumKnownVector) {
  // Example from RFC 1071 discussions.
  Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = InternetChecksum(data);
  // Verify the defining property: checksumming data + checksum == 0.
  Bytes with;
  with = data;
  with.push_back(static_cast<std::uint8_t>(sum >> 8));
  with.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(InternetChecksum(with), 0);
}

TEST(StatsTest, PercentilesAndMean) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_DOUBLE_EQ(stats.Mean(), 50.5);
  EXPECT_EQ(stats.Min(), 1);
  EXPECT_EQ(stats.Max(), 100);
  EXPECT_NEAR(stats.Percentile(50), 50, 1);
  EXPECT_NEAR(stats.Percentile(99), 99, 1);
  EXPECT_EQ(stats.Count(), 100u);
}

TEST(TypesTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(1500), "1.500us");
  EXPECT_EQ(FormatDuration(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatDuration(3 * kSecond), "3.000s");
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, TiesFireInInsertionOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.At(5, [&] { order.push_back(1); });
  sim.At(5, [&] { order.push_back(2); });
  sim.At(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  sim::Simulator sim;
  int count = 0;
  sim.At(10, [&] { ++count; });
  sim.At(20, [&] { ++count; });
  sim.At(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EveryRepeatsUntilCancelled) {
  sim::Simulator sim;
  int ticks = 0;
  auto handle = sim.Every(10, [&] { ++ticks; });
  sim.RunUntil(55);
  EXPECT_EQ(ticks, 5);
  handle.Cancel();
  sim.RunUntil(200);
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.EventsProcessed(), 5u);  // the dropped tick is not counted
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  sim::Simulator sim;
  std::vector<SimTime> times;
  sim.At(10, [&] {
    times.push_back(sim.Now());
    sim.After(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, PastEventsClampToNow) {
  sim::Simulator sim;
  sim.At(100, [&] {
    sim.At(50, [&] {
      // Scheduled "in the past": must fire at now, not violate ordering.
      EXPECT_GE(sim.Now(), 100u);
    });
  });
  sim.Run();
}

TEST(HashTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a64(kFnvOffsetBasis, ""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(kFnvOffsetBasis, "a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64(kFnvOffsetBasis, "foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64(kFnvOffsetBasis, ToBytes("foobar")),
            Fnv1a64(kFnvOffsetBasis, "foobar"))
      << "byte and text overloads hash the same bytes";
  // The truncated basis is a different seed, not a different algorithm.
  EXPECT_EQ(Fnv1a64(kFnvTruncatedBasis, "a"), 0x44bd8ad473cd9906ull);
}

TEST(HashTest, MixersArePinned) {
  EXPECT_EQ(Fmix64(0), 0u);
  EXPECT_EQ(Fmix64(1), 0xb456bcfc34c2cb2cull);
  EXPECT_EQ(Mix64(1, 2), 0xbeeb8da1658eec67ull);
  EXPECT_NE(Mix64(1, 2), Mix64(2, 1)) << "the pair fold is order-sensitive";
}

}  // namespace
}  // namespace iotsec
