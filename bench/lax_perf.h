// The IOTSEC_BENCH_LAX_PERF switch read by the wall-clock gated benches.
//
// Shared CI runners are noisy enough to flake a strict timing gate, so CI
// sets IOTSEC_BENCH_LAX_PERF=1 and the benches relax their wall-clock
// thresholds (their counter assertions never relax). Only a non-empty
// value other than "0" turns it on: an unset, empty or "0" variable keeps
// the strict gates.
#pragma once

#include <cstdlib>
#include <string_view>

namespace iotsec::bench {

/// Whether `value` (the variable's contents; nullptr when unset) asks for
/// the relaxed gates.
inline bool LaxPerf(const char* value) {
  if (value == nullptr) return false;
  const std::string_view v(value);
  return !v.empty() && v != "0";
}

/// LaxPerf of the process's IOTSEC_BENCH_LAX_PERF.
inline bool LaxPerf() { return LaxPerf(std::getenv("IOTSEC_BENCH_LAX_PERF")); }

}  // namespace iotsec::bench
