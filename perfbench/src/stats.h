// Measurement primitives shared by every workload: a host clock, per-shard
// layer accumulators that only their own shard thread writes, sample
// vectors with exact percentiles, and the metric list a run reports.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Wall clock. Per-layer spans and the run budget use it.
[[nodiscard]] inline std::uint64_t HostNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the thread behind `clock` (a thread's CPU clock). Unlike
/// wall time it does not advance while the hypervisor runs another
/// tenant on this vCPU, so end-to-end times read it: on a shared virtual
/// machine, stolen time otherwise swings run-to-run results by 20%.
[[nodiscard]] inline std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
[[nodiscard]] inline std::uint64_t ThreadCpuNs() {
  return ClockNs(CLOCK_THREAD_CPUTIME_ID);
}

/// Layers whose time the traced run attributes from wrapped calls. `kSim`
/// receives whatever wall time no wrapper covers (event engine, link
/// scheduling, barrier). `kGen` is the benchmark's own load generator.
enum Layer : int {
  kSim = 0,
  kSdn,
  kDataplane,
  kNet,
  kControl,
  kPolicy,
  kGen,
  kLayerCount
};
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim", "sdn", "dataplane", "net", "control", "policy", "gen"};

/// One shard thread's accumulators. Each instance is written only by the
/// thread running its shard and read by the main thread while every
/// shard is parked at a barrier, so plain fields need no atomics; the
/// alignment keeps neighbouring shards off each other's cache lines.
struct alignas(64) ShardAccum {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  /// Sum of all wrapped time (for the busiest-shard barrier estimate).
  std::uint64_t wrapped_ns = 0;
  /// Time spent in benchmark-only side measurements (encap/decap probes),
  /// removed from the wall time before shares are computed.
  std::uint64_t probe_ns = 0;

  // Frame outcomes, counted in every run.
  std::uint64_t injected = 0;
  std::uint64_t planted_injected = 0;
  std::uint64_t completed = 0;       // delivered + correctly blocked
  std::uint64_t delivered = 0;
  std::uint64_t blocked = 0;         // planted frames dropped by a verdict
  std::uint64_t bad_delivery = 0;    // planted frame got through / mismatch
  std::uint64_t bad_block = 0;       // clean frame dropped
  std::uint64_t digest = 0;          // order-independent delivery fold

  std::vector<std::uint64_t> latency_ns;  // stimulus -> effect, host ns
  std::vector<std::uint64_t> encap_ns;
  std::vector<std::uint64_t> decap_ns;
  std::uint64_t probe_counter = 0;

  void Add(Layer layer, std::uint64_t dt) {
    ns[layer] += dt;
    ++calls[layer];
    wrapped_ns += dt;
  }
};

/// Exact nearest-rank percentile (p in [0,100]); 0 for an empty set.
[[nodiscard]] double Percentile(std::vector<double> values, double p);
[[nodiscard]] double Percentile(const std::vector<std::uint64_t>& values,
                                double p);
[[nodiscard]] double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double PeakRssMb();

std::uint64_t Mix64(std::uint64_t a, std::uint64_t b);
std::uint64_t Fnv64(const std::uint8_t* data, std::size_t n);

/// Ordered metric list for the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> check_failures;
  /// Free-form human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    correct = false;
    check_failures.push_back(what);
  }
  void E2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit)});
  }
  void Layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
};

/// Renders {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string ResultJson(const RunResult& r,
                                     const std::vector<Metric>& metrics);

}  // namespace perfbench
