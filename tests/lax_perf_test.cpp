// The benches' IOTSEC_BENCH_LAX_PERF reading: only a non-empty value other
// than "0" relaxes their wall-clock gates.
#include <gtest/gtest.h>

#include "../bench/lax_perf.h"

namespace iotsec::bench {
namespace {

TEST(LaxPerf, OnlyANonZeroValueRelaxes) {
  EXPECT_FALSE(LaxPerf(nullptr));
  EXPECT_FALSE(LaxPerf(""));
  EXPECT_FALSE(LaxPerf("0"));
  EXPECT_TRUE(LaxPerf("1"));
  EXPECT_TRUE(LaxPerf("yes"));
}

}  // namespace
}  // namespace iotsec::bench
