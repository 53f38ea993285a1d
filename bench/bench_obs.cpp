// Observability overhead benchmark: what does the telemetry cost when
// it is idle, and what does it cost when it is on?
//
// The subsystem's contract (DESIGN.md "Observability") is that leaving
// telemetry compiled in with sampling off is free enough to never think
// about: every instrumented site is either a relaxed sharded counter
// increment or a single relaxed-load branch. This bench prices that
// contract against the two hot paths that matter — the PR-1 fast-path
// forwarding workload and the PR-3 DPI evaluation loop — by A/B-ing
// telemetry idle (obs enabled, sampling off: the production default)
// against the kill switch (obs::SetEnabled(false): sites reduce to one
// branch). It also microbenchmarks each primitive in isolation and
// sanity-checks that a cross-thread snapshot merge loses nothing.
//
// Emits machine-readable BENCH_obs.json. Exit code enforces:
//   - idle-telemetry overhead < 3% on both workloads (best-of-N runs,
//     interleaved so thermal/noise drift hits both arms equally);
//   - the concurrent snapshot merge is exact (counts add up across
//     threads, no increments lost).
//
// The merge assertion is always hard. The wall-clock gate relaxes when
// IOTSEC_BENCH_LAX_PERF is on (lax_perf.h) — shared CI runners have
// enough timing noise that an honest 3% comparison intermittently fails
// even when the median overhead is ~0; the measured ratios are still written to
// BENCH_obs.json either way. Run without the env var locally for the
// real acceptance bar.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "lax_perf.h"
#include "common/rng.h"
#include "fastpath_harness.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/transport.h"
#include "sig/compiled_ruleset.h"
#include "sig/ruleset.h"

using namespace iotsec;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Keeps `v` alive past the optimizer without a memory barrier.
template <typename T>
void Sink(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// ---------------------------------------------------------------------
// Primitive microcosts: ns/op for each telemetry building block.

struct MicroCosts {
  double counter_inc_ns = 0;
  double gauge_set_ns = 0;
  double hist_record_ns = 0;
  double span_off_ns = 0;   // sampling disabled: the production default
  double span_on_ns = 0;    // sampling enabled: full timed span
  double flight_record_ns = 0;
  double flight_off_ns = 0;  // recorder disabled: load + branch
  double snapshot_us = 0;    // one full registry merge
};

MicroCosts MeasureMicroCosts() {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* counter = reg.GetCounter("bench.micro_counter");
  obs::Gauge* gauge = reg.GetGauge("bench.micro_gauge");
  obs::Histogram* hist = reg.GetHistogram("bench.micro_hist");
  auto& fr = obs::FlightRecorder::Global();

  constexpr std::uint64_t kIters = 1u << 22;
  const auto per_op = [&](auto&& fn) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) fn(i);
    return Seconds(start, Clock::now()) * 1e9 / static_cast<double>(kIters);
  };

  MicroCosts mc;
  mc.counter_inc_ns = per_op([&](std::uint64_t) { counter->Inc(); });
  mc.gauge_set_ns = per_op(
      [&](std::uint64_t i) { gauge->Set(static_cast<std::int64_t>(i)); });
  mc.hist_record_ns = per_op([&](std::uint64_t i) { hist->Record(i & 0xffff); });

  obs::SetSampling(false);
  mc.span_off_ns = per_op([&](std::uint64_t) { OBS_SPAN(hist); });
  obs::SetSampling(true);
  // Spans are two clock reads; a much smaller loop still converges.
  {
    constexpr std::uint64_t kSpanIters = 1u << 18;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kSpanIters; ++i) {
      OBS_SPAN(hist);
    }
    mc.span_on_ns =
        Seconds(start, Clock::now()) * 1e9 / static_cast<double>(kSpanIters);
  }
  obs::SetSampling(false);

  fr.SetEnabled(true);
  mc.flight_record_ns = per_op([&](std::uint64_t i) {
    fr.Record(obs::TraceEventType::kPacketVerdict, i,
              static_cast<std::uint32_t>(i), i);
  });
  fr.SetEnabled(false);
  mc.flight_off_ns = per_op([&](std::uint64_t i) {
    fr.Record(obs::TraceEventType::kPacketVerdict, i,
              static_cast<std::uint32_t>(i), i);
  });
  fr.SetEnabled(true);
  fr.Clear();

  {
    const auto start = Clock::now();
    constexpr int kSnaps = 100;
    for (int i = 0; i < kSnaps; ++i) Sink(reg.Snapshot().counters.size());
    mc.snapshot_us = Seconds(start, Clock::now()) * 1e6 / kSnaps;
  }
  return mc;
}

// ---------------------------------------------------------------------
// Workload A: the PR-1 fast-path forwarding loop (switch + microflow
// cache + pool), the most instrumentation-dense packet path.

double RunFastPath() {
  bench::FastPathConfig cfg;
  cfg.rules = 512;
  cfg.flows = 64;
  cfg.packets = 200000;
  return bench::RunFastPathWorkload(cfg).pps;
}

// ---------------------------------------------------------------------
// Workload B: the PR-3 DPI evaluation loop (dense-DFA payload scan with
// an OBS_SPAN around every Evaluate).

struct DpiWorkload {
  std::vector<sig::Rule> rules;
  Bytes frame_bytes;
  proto::ParsedFrame frame;

  DpiWorkload() {
    Rng rng(20260807);
    Bytes payload;
    std::vector<std::string> patterns;
    for (int i = 0; i < 256; ++i) {
      const auto len = 6 + rng.NextBelow(9);
      std::string p;
      for (std::size_t j = 0; j < len; ++j) {
        p += static_cast<char>('a' + rng.NextBelow(5));
      }
      sig::Rule rule;
      rule.action = sig::RuleAction::kAlert;
      rule.proto = sig::RuleProto::kTcp;
      rule.sid = static_cast<std::uint32_t>(40000 + i);
      rule.msg = "obs-bench";
      rule.contents.push_back(sig::ContentPattern{p, /*nocase=*/false});
      rules.push_back(std::move(rule));
      patterns.push_back(std::move(p));
    }
    for (int i = 0; i < 1024; ++i) {
      payload.push_back(static_cast<std::uint8_t>('a' + rng.NextBelow(5)));
    }
    const auto& plant = patterns[rng.NextBelow(patterns.size())];
    std::copy(plant.begin(), plant.end(), payload.begin() + 100);
    frame_bytes = proto::BuildTcpFrame(
        net::MacAddress::FromId(1), net::MacAddress::FromId(2),
        net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2),
        proto::TcpHeader{.src_port = 4444, .dst_port = 80,
                         .flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck},
        payload);
    frame = *proto::ParseFrame(frame_bytes);
  }
};

double RunDpi(const DpiWorkload& wl, const sig::CompiledRuleset& compiled) {
  sig::EvalScratch scratch;
  constexpr int kEvals = 20000;
  const auto start = Clock::now();
  std::size_t matched = 0;
  for (int i = 0; i < kEvals; ++i) {
    matched += compiled.Evaluate(wl.frame, scratch).matched_sids.size();
  }
  const double secs = Seconds(start, Clock::now());
  Sink(matched);
  return static_cast<double>(kEvals) / secs;
}

/// Best-of-N throughput with the two telemetry states interleaved, so
/// noise and frequency drift land on both arms instead of one.
struct AbResult {
  double idle = 0;  // obs enabled, sampling off (production default)
  double kill = 0;  // obs::SetEnabled(false)
  double sampling = 0;  // obs enabled, sampling on (informational)

  [[nodiscard]] double OverheadPct() const {
    return kill <= 0 ? 0.0 : (kill - idle) / kill * 100.0;
  }
};

template <typename Fn>
AbResult MeasureAb(Fn&& run, int reps) {
  AbResult r;
  obs::SetSampling(false);
  for (int i = 0; i < reps; ++i) {
    obs::SetEnabled(false);
    r.kill = std::max(r.kill, run());
    obs::SetEnabled(true);
    r.idle = std::max(r.idle, run());
  }
  obs::SetSampling(true);
  r.sampling = run();
  obs::SetSampling(false);
  return r;
}

// ---------------------------------------------------------------------
// Concurrent merge exactness: hammer one counter + one histogram from N
// threads, then check the merged snapshot saw every single increment.

struct MergeCheck {
  int threads = 0;
  std::uint64_t expected = 0;
  std::uint64_t counter_total = 0;
  std::uint64_t hist_count = 0;
  bool exact = false;
};

MergeCheck CheckConcurrentMerge() {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* counter = reg.GetCounter("bench.merge_counter");
  obs::Histogram* hist = reg.GetHistogram("bench.merge_hist");
  counter->Reset();
  hist->Reset();

  MergeCheck mc;
  mc.threads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(mc.threads));
  for (int t = 0; t < mc.threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Record((i + static_cast<std::uint64_t>(t)) & 0x3ff);
      }
    });
  }
  for (auto& th : pool) th.join();

  mc.expected = kPerThread * static_cast<std::uint64_t>(mc.threads);
  mc.counter_total = counter->Value();
  mc.hist_count = hist->Snapshot().count;
  mc.exact = mc.counter_total == mc.expected && mc.hist_count == mc.expected;
  return mc;
}

}  // namespace

int main() {
  const bool lax_perf = bench::LaxPerf();
  // Strict gate is the subsystem's contract; the lax bar only exists to
  // keep shared-runner noise from failing CI on a true-zero overhead.
  const double gate_pct = lax_perf ? 20.0 : 3.0;

  std::printf("=== observability overhead ===\n");

  std::printf("\n--- primitive microcosts (ns/op) ---\n");
  const MicroCosts mc = MeasureMicroCosts();
  std::printf("counter.Inc        %7.2f\n", mc.counter_inc_ns);
  std::printf("gauge.Set          %7.2f\n", mc.gauge_set_ns);
  std::printf("histogram.Record   %7.2f\n", mc.hist_record_ns);
  std::printf("span (sampling off)%7.2f\n", mc.span_off_ns);
  std::printf("span (sampling on) %7.2f\n", mc.span_on_ns);
  std::printf("flight.Record      %7.2f\n", mc.flight_record_ns);
  std::printf("flight (disabled)  %7.2f\n", mc.flight_off_ns);
  std::printf("registry snapshot  %7.2f us\n", mc.snapshot_us);

  std::printf("\n--- fast-path forwarding (pps, best of 5) ---\n");
  const AbResult fp = MeasureAb(RunFastPath, /*reps=*/5);
  std::printf("kill switch  %12.0f\n", fp.kill);
  std::printf("idle         %12.0f  (overhead %+.2f%%)\n", fp.idle,
              fp.OverheadPct());
  std::printf("sampling on  %12.0f\n", fp.sampling);

  std::printf("\n--- DPI evaluate (evals/s, best of 5) ---\n");
  const DpiWorkload wl;
  const sig::CompiledRuleset compiled(wl.rules);
  const AbResult dpi =
      MeasureAb([&] { return RunDpi(wl, compiled); }, /*reps=*/5);
  std::printf("kill switch  %12.0f\n", dpi.kill);
  std::printf("idle         %12.0f  (overhead %+.2f%%)\n", dpi.idle,
              dpi.OverheadPct());
  std::printf("sampling on  %12.0f\n", dpi.sampling);

  std::printf("\n--- concurrent snapshot merge ---\n");
  const MergeCheck merge = CheckConcurrentMerge();
  std::printf("%d threads x %llu incs: counter=%llu hist_count=%llu %s\n",
              merge.threads,
              static_cast<unsigned long long>(merge.expected /
                                              static_cast<std::uint64_t>(
                                                  merge.threads)),
              static_cast<unsigned long long>(merge.counter_total),
              static_cast<unsigned long long>(merge.hist_count),
              merge.exact ? "EXACT" : "LOST INCREMENTS");

  const bool fp_ok = fp.OverheadPct() < gate_pct;
  const bool dpi_ok = dpi.OverheadPct() < gate_pct;
  const bool pass = fp_ok && dpi_ok && merge.exact;

  FILE* json = std::fopen("BENCH_obs.json", "w");
  if (json != nullptr) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Field("bench", "obs");
    w.Key("microcosts_ns");
    w.BeginObject();
    w.Field("counter_inc", mc.counter_inc_ns, 2);
    w.Field("gauge_set", mc.gauge_set_ns, 2);
    w.Field("hist_record", mc.hist_record_ns, 2);
    w.Field("span_sampling_off", mc.span_off_ns, 2);
    w.Field("span_sampling_on", mc.span_on_ns, 2);
    w.Field("flight_record", mc.flight_record_ns, 2);
    w.Field("flight_disabled", mc.flight_off_ns, 2);
    w.Field("registry_snapshot_us", mc.snapshot_us, 2);
    w.EndObject();
    w.Key("fastpath");
    w.BeginObject();
    w.Field("kill_pps", fp.kill, 0);
    w.Field("idle_pps", fp.idle, 0);
    w.Field("sampling_pps", fp.sampling, 0);
    w.Field("overhead_pct", fp.OverheadPct(), 2);
    w.EndObject();
    w.Key("dpi");
    w.BeginObject();
    w.Field("kill_eval_per_s", dpi.kill, 0);
    w.Field("idle_eval_per_s", dpi.idle, 0);
    w.Field("sampling_eval_per_s", dpi.sampling, 0);
    w.Field("overhead_pct", dpi.OverheadPct(), 2);
    w.EndObject();
    w.Key("merge");
    w.BeginObject();
    w.Field("threads", merge.threads);
    w.Field("expected", merge.expected);
    w.Field("counter_total", merge.counter_total);
    w.Field("hist_count", merge.hist_count);
    w.Field("exact", merge.exact);
    w.EndObject();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("gate_pct", gate_pct, 1);
    w.Field("lax_perf", lax_perf);
    w.Field("fastpath_ok", fp_ok);
    w.Field("dpi_ok", dpi_ok);
    w.Field("merge_exact", merge.exact);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_obs.json\n");
  }

  std::printf("\nacceptance: idle overhead < %.1f%%: fastpath %s, dpi %s; "
              "merge %s\n",
              gate_pct, fp_ok ? "PASS" : "FAIL", dpi_ok ? "PASS" : "FAIL",
              merge.exact ? "EXACT" : "BROKEN");
  return pass ? 0 : 1;
}
