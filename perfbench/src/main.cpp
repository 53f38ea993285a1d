// IoTSec end-to-end benchmark harness.
//
//   iotsec_perfbench --workload <fleet_telemetry|dpi_inspect|posture_churn>
//                    --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with every timing wrapper off.
// --trace 1 alternates traced and untraced windows of the same run and
// reports the per-layer metrics (from traced windows) and the tracing
// overhead (traced against untraced windows). The last line of standard
// output is the result object; the exit code is 0 only if every
// correctness check passed.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "churn.h"
#include "fleet.h"
#include "net/packet.h"
#include "obs/obs.h"
#include "stats.h"

namespace perfbench {
namespace {

using iotsec::kMillisecond;


struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
};

/// What one measured phase produced, whatever the workload.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> rate_untraced;  // completions per host second
  std::vector<double> rate_traced;
  std::vector<double> wall_rate_untraced;  // completions per wall second
  std::vector<double> flips_untraced;  // posture changes per host second
  std::uint64_t traced_wall_ns = 0;
  std::uint64_t traced_events = 0;
  std::uint64_t threads = 1;
  std::array<std::uint64_t, kLayerCount> layer_ns{};
  std::array<std::uint64_t, kLayerCount> layer_calls{};
  std::uint64_t probe_ns = 0;
  /// Latency samples in time order, one list per shard.
  std::vector<std::vector<std::uint64_t>> latency_ns;
  std::vector<std::uint64_t> encap_ns;
  std::vector<std::uint64_t> decap_ns;
};

double Ms(double ns) { return ns / 1e6; }

double PerCall(const Phase& p, Layer l) {
  return p.layer_calls[l] == 0
             ? 0.0
             : static_cast<double>(p.layer_ns[l]) /
                   static_cast<double>(p.layer_calls[l]);
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

void SumAccums(Phase& p, const std::vector<const ShardAccum*>& accs) {
  for (const ShardAccum* a : accs) {
    for (int l = 0; l < kLayerCount; ++l) {
      p.layer_ns[static_cast<std::size_t>(l)] += a->ns[static_cast<std::size_t>(l)];
      p.layer_calls[static_cast<std::size_t>(l)] +=
          a->calls[static_cast<std::size_t>(l)];
    }
    p.probe_ns += a->probe_ns;
    p.encap_ns.insert(p.encap_ns.end(), a->encap_ns.begin(), a->encap_ns.end());
    p.decap_ns.insert(p.decap_ns.end(), a->decap_ns.begin(), a->decap_ns.end());
  }
}

/// Moves the calling thread over the CPUs it may use, one step per
/// Next(). Single-threaded runs step once per set-up and once per pair
/// of windows, so every run samples every vCPU alike: on the reference
/// machine, a 4-vCPU VM, single vCPUs differed by 15-20% in memory latency
/// for minutes on end, and the scheduler keeps a thread on the vCPU it
/// started on, so a run's figure otherwise depended on where it landed.
/// Disabled where the program starts worker threads, which would inherit
/// a one-CPU mask.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Stop(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Gives the thread back every CPU it had.
  void Stop() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
    cpus_.clear();
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

/// Running counts a workload exposes to the window loop (any may be null).
struct Counters {
  std::function<std::uint64_t()> clock_ns;  // the workload's CPU clock
  std::function<std::uint64_t()> flips;     // posture changes applied
  std::function<std::uint64_t()> events;    // simulator events processed
  std::function<std::uint64_t()> probe_ns;  // benchmark-only side work
};

/// Runs windows until `seconds` of wall time have passed. With tracing,
/// even windows are traced and odd ones are not. `window` runs one window
/// and returns its completions; rates divide them by the workload's CPU
/// clock (see ThreadCpuNs), the wall clock times traced spans.
void MeasureWindows(const Args& a, Phase& p, CpuRotation& cpus,
                    const std::function<void(bool)>& set_tracing,
                    const std::function<std::uint64_t()>& window,
                    const Counters& c) {
  auto read = [](const std::function<std::uint64_t()>& f) -> std::uint64_t {
    return f ? f() : 0;
  };
  const auto budget = static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t spent = 0;
  for (std::uint64_t w = 0; spent < budget; ++w) {
    // A traced window and the untraced one after it share a CPU.
    if (w % 2 == 0) cpus.Next();
    const bool traced = a.trace != 0 && w % 2 == 0;
    set_tracing(traced);
    const std::uint64_t flips0 = read(c.flips);
    const std::uint64_t events0 = read(c.events);
    const std::uint64_t probe0 = read(c.probe_ns);
    const std::uint64_t cpu0 = c.clock_ns();
    const std::uint64_t t0 = HostNs();
    const std::uint64_t done = window();
    const std::uint64_t dt = HostNs() - t0;
    const std::uint64_t cpu = std::max<std::uint64_t>(c.clock_ns() - cpu0, 1);
    spent += dt;
    if (traced) {
      // Side measurements are not the program's work: leave them out of
      // the traced rate, so trace_overhead prices the wrappers alone.
      const std::uint64_t probe = read(c.probe_ns) - probe0;
      const double secs = static_cast<double>(cpu - std::min(cpu - 1, probe)) / 1e9;
      p.rate_traced.push_back(static_cast<double>(done) / secs);
      p.traced_wall_ns += dt;
      p.traced_events += read(c.events) - events0;
    } else {
      const double secs = static_cast<double>(cpu) / 1e9;
      p.rate_untraced.push_back(static_cast<double>(done) / secs);
      p.wall_rate_untraced.push_back(static_cast<double>(done) * 1e9 /
                                     static_cast<double>(std::max<std::uint64_t>(dt, 1)));
      if (c.flips) {
        p.flips_untraced.push_back(
            static_cast<double>(read(c.flips) - flips0) / secs);
      }
    }
  }
  set_tracing(false);
}

/// Median over consecutive blocks of samples of each block's percentile.
/// Blocks hold at least 1000 samples, so a block's p99 has ten beyond it,
/// and a short host stall moves one block rather than the whole run.
double BlockPercentile(const std::vector<std::vector<std::uint64_t>>& lists,
                       double pct, std::size_t* samples) {
  std::size_t n = 0;
  for (const auto& l : lists) n += l.size();
  *samples = n;
  const std::size_t per_block = std::max<std::size_t>(1000, n / 20);
  std::vector<double> blocks;
  for (const auto& l : lists) {
    const std::size_t count = std::max<std::size_t>(1, l.size() / per_block);
    for (std::size_t b = 0; b < count; ++b) {
      const std::size_t lo = l.size() * b / count;
      const std::size_t hi = l.size() * (b + 1) / count;
      if (hi <= lo) continue;
      blocks.push_back(Percentile(
          std::vector<std::uint64_t>(l.begin() + static_cast<long>(lo),
                                     l.begin() + static_cast<long>(hi)),
          pct));
    }
  }
  return Median(std::move(blocks));
}

void AddLatencyMetrics(RunResult& r, const Phase& p) {
  std::size_t n = 0;
  r.E2e("reaction_ms_p50", Ms(BlockPercentile(p.latency_ns, 50, &n)), "ms");
  r.E2e("reaction_ms_p99", Ms(BlockPercentile(p.latency_ns, 99, &n)), "ms");
  r.notes.push_back("reaction samples: " + std::to_string(n));
}

void AddCommonE2e(RunResult& r, const Phase& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "window rates (%zu windows): p10 %.0f p25 %.0f p50 %.0f "
                "p75 %.0f p90 %.0f /s",
                p.rate_untraced.size(), Percentile(p.rate_untraced, 10),
                Percentile(p.rate_untraced, 25), Percentile(p.rate_untraced, 50),
                Percentile(p.rate_untraced, 75), Percentile(p.rate_untraced, 90));
  r.notes.push_back(buf);
  r.E2e("frames_per_s", Median(p.rate_untraced), "1/s");
  r.E2e("setup_s", Median(p.setup_s), "s");
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");
  AddLatencyMetrics(r, p);
}

/// Every per-layer metric, in output order, with its unit; the names and
/// units BENCHMARK.json lists. A workload sets the ones that apply to it,
/// the others are reported as 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"sim.events_per_frame", "events/frame"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.quantum_us_p50", "us"},
    {"sim.quantum_us_p99", "us"},
    {"sim.barrier_wait_share", "ratio"},
    {"sim.cross_shard_events", "1/frame"},
    {"sim.wall_frames_per_s", "1/s"},
    {"sdn.switch_receive_ns", "ns"},
    {"sdn.microflow_hit_ratio", "ratio"},
    {"sdn.flow_install_us", "us"},
    {"sdn.flowmod_ops", "ops/flip"},
    {"proto.encap_ns", "ns"},
    {"proto.decap_ns", "ns"},
    {"dataplane.host_receive_ns", "ns"},
    {"dataplane.chain_ns_p50", "ns"},
    {"dataplane.launch_us", "us"},
    {"dataplane.reconfigs", "1/flip"},
    {"sig.scan_ns_p50", "ns"},
    {"sig.scan_mb_per_s", "MB/s"},
    {"sig.compile_ms", "ms"},
    {"net.queue_drops", "count"},
    {"net.pool_foreign_releases", "1/frame"},
    {"net.sink_deliver_ns", "ns"},
    {"control.set_context_us", "us"},
    {"control.policy_evals", "1/flip"},
    {"control.posture_changes", "1/flip"},
    {"control.reevals_coalesced", "1/flip"},
    {"control.posture_changes_per_s", "1/s"},
    {"policy.evaluate_all_us", "us"},
    {"trace_overhead", "ratio"},
    {"share.sim", "ratio"},
    {"share.sdn", "ratio"},
    {"share.dataplane", "ratio"},
    {"share.net", "ratio"},
    {"share.control", "ratio"},
    {"share.policy", "ratio"},
    {"share.gen", "ratio"},
};

using LayerValues = std::map<std::string, double>;

void EmitLayers(RunResult& r, const LayerValues& v) {
  std::size_t used = 0;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = v.find(name);
    used += it != v.end() ? 1 : 0;
    r.Layer(name, it != v.end() ? it->second : 0.0, unit);
  }
  if (used != v.size()) r.Fail("a per-layer metric is missing from kPerLayer");
}

/// trace_overhead, and the shares of the traced windows' thread time,
/// summing to 1: each wrapped layer's time, and `sim` for whatever no
/// wrapper covered.
void AddTraceOverheadAndShares(LayerValues& v, const Phase& p,
                               std::uint64_t policy_ns) {
  v["trace_overhead"] =
      1.0 - Ratio(Median(p.rate_traced), Median(p.rate_untraced));
  const double total =
      static_cast<double>(p.traced_wall_ns * p.threads) -
      static_cast<double>(p.probe_ns);
  std::array<double, kLayerCount> ns{};
  for (int l = 0; l < kLayerCount; ++l) {
    ns[static_cast<std::size_t>(l)] =
        static_cast<double>(p.layer_ns[static_cast<std::size_t>(l)]);
  }
  // The control layer's reevaluation window contains the policy
  // evaluation; the separately timed EvaluateAll estimates that part.
  const double pol = std::min(static_cast<double>(policy_ns), ns[kControl]);
  ns[kControl] -= pol;
  ns[kPolicy] += pol;
  double covered = 0;
  for (int l = 1; l < kLayerCount; ++l) covered += ns[static_cast<std::size_t>(l)];
  ns[kSim] = std::max(0.0, total - covered);
  for (int l = 0; l < kLayerCount; ++l) {
    v[std::string("share.") + kLayerNames[static_cast<std::size_t>(l)]] =
        Ratio(ns[static_cast<std::size_t>(l)], std::max(total, covered));
  }
}

struct Obs {
  iotsec::obs::HistogramSnapshot chain;
  iotsec::obs::HistogramSnapshot scan;
};

Obs ReadObs() {
  return {iotsec::obs::M().dp_chain_ns->Snapshot(),
          iotsec::obs::M().sig_scan_ns->Snapshot()};
}

void ResetObs() {
  iotsec::obs::M().dp_chain_ns->Reset();
  iotsec::obs::M().sig_scan_ns->Reset();
}

// ------------------------------------------------------------ frame path

RunResult RunFleet(const Args& a, bool dpi) {
  RunResult r;
  FleetConfig cfg;
  cfg.gen.seed = a.seed;
  cfg.dpi = dpi;
  cfg.dpi_gen.seed = a.seed;
  if (dpi) {
    cfg.gen.devices = 1000;
    cfg.shards = 1;
  } else {
    cfg.gen.devices = 100000;
    cfg.shards = 4;
    // The end-to-end run executes the 4 shards inline on one thread (the
    // same quanta, mailboxes and results). With a worker thread per shard
    // on a shared 4-vCPU machine, frames/s of one seed swung by 40%
    // between runs even in CPU time, too much to gate anything on. The
    // traced run keeps the worker threads: that is where barrier wait
    // exists to be measured.
    cfg.threads = a.trace != 0;
  }
  // One window is a fixed slice of simulated time. The warm-up covers every
  // device's first send, which pays one-off costs (first frame through
  // each µmbox), and one window more.
  const SimDuration window = dpi ? 10 * kMillisecond : kMillisecond;
  const SimDuration warm = cfg.gen.interval + window;
  const int setups = dpi ? 5 : 3;

  Phase p;
  const bool threaded = cfg.threads && cfg.shards > 1;
  p.threads = threaded ? static_cast<std::uint64_t>(cfg.shards) : 1;
  CpuRotation cpus(!threaded);
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    cpus.Next();
    // The main thread's CPU clock starts with the process.
    const std::uint64_t t0 = i == 0 ? 0 : ThreadCpuNs();
    fleet = std::make_unique<Fleet>(cfg);
    fleet->RunTo(fleet->start() + warm);
    p.setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
  }
  for (int s = 0; s < fleet->shard_count(); ++s) fleet->accum(s).latency_ns.clear();
  ResetObs();

  const std::uint64_t events0 = fleet->EventsProcessed();
  const std::uint64_t completed0 = fleet->Completed();
  MeasureWindows(
      a, p, cpus, [&](bool on) { fleet->SetTracing(on); },
      [&] {
        const std::uint64_t before = fleet->Completed();
        fleet->RunTo(fleet->Now() + window);
        return fleet->Completed() - before;
      },
      Counters{[&] { return fleet->CriticalPathNs(); }, nullptr,
               [&] { return fleet->EventsProcessed(); },
               [&] {
                 std::uint64_t n = 0;
                 for (int s = 0; s < fleet->shard_count(); ++s) {
                   n += fleet->accum(s).probe_ns;
                 }
                 return n;
               }});
  const std::uint64_t events = fleet->EventsProcessed() - events0;
  const std::uint64_t frames = fleet->Completed() - completed0;
  const Obs obs = ReadObs();

  std::vector<const ShardAccum*> accs;
  for (int s = 0; s < fleet->shard_count(); ++s) {
    const ShardAccum& acc = fleet->accum(s);
    accs.push_back(&acc);
    p.latency_ns.push_back(acc.latency_ns);
  }
  SumAccums(p, accs);

  // Drain: no new sends, every frame in flight completes.
  fleet->SendUntil(fleet->Now());
  fleet->RunTo(fleet->Now() + 20 * kMillisecond);
  const Fleet::Totals t = fleet->Collect();

  r.attempted = t.injected;
  const std::uint64_t done = t.delivered + t.blocked;
  r.failed = t.injected > done ? t.injected - done : 0;
  if (t.processed != t.injected) {
    r.Fail("processed " + std::to_string(t.processed) + " != injected " +
           std::to_string(t.injected));
  }
  if (done != t.injected) {
    r.Fail("delivered+blocked " + std::to_string(done) + " != injected " +
           std::to_string(t.injected));
  }
  if (t.blocked != t.planted_injected || t.bad_delivery != 0 ||
      t.bad_block != 0) {
    r.Fail("verdicts: blocked " + std::to_string(t.blocked) + " of " +
           std::to_string(t.planted_injected) + " planted, " +
           std::to_string(t.bad_delivery) + " bad deliveries, " +
           std::to_string(t.bad_block) + " clean frames dropped");
  }
  if (t.late_posts != 0) r.Fail("late posts: " + std::to_string(t.late_posts));
  if (t.queue_drops != 0) r.Fail("queue drops: " + std::to_string(t.queue_drops));
  r.notes.push_back("frames injected " + std::to_string(t.injected) +
                    ", delivered " + std::to_string(t.delivered) +
                    ", blocked " + std::to_string(t.blocked) + " (planted " +
                    std::to_string(t.planted_injected) + ")");
  const SetupCosts setup = fleet->setup();
  const Fleet::QuantumTrace quanta = fleet->quanta();
  fleet.reset();
  cpus.Stop();

  if (!dpi) {
    // The end-state digest must not depend on the shard count: replay a
    // bounded schedule of the same generator at 4 shards and at 1.
    FleetConfig replay = cfg;
    replay.threads = true;
    replay.gen.devices = std::min(cfg.gen.devices, 8000);
    replay.max_sends = 3;
    replay.digest = true;
    std::uint64_t digest[2] = {0, 0};
    std::uint64_t delivered[2] = {0, 0};
    const int shard_counts[2] = {4, 1};
    for (int i = 0; i < 2; ++i) {
      replay.shards = shard_counts[i];
      Fleet f(replay);
      f.RunTo(f.start() + 4 * replay.gen.interval);
      const Fleet::Totals rt = f.Collect();
      digest[i] = rt.digest;
      delivered[i] = rt.delivered;
    }
    if (digest[0] != digest[1] || delivered[0] != delivered[1] ||
        delivered[0] == 0) {
      r.Fail("digest differs across shard counts");
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "shard-invariant digest %016llx",
                  static_cast<unsigned long long>(digest[0]));
    r.notes.push_back(buf);
  }

  if (a.trace == 0) {
    AddCommonE2e(r, p);
    return r;
  }
  const double fpf = static_cast<double>(std::max<std::uint64_t>(frames, 1));
  LayerValues v;
  v["sim.events_per_frame"] = Ratio(static_cast<double>(events), fpf);
  v["sim.host_ns_per_event"] = Ratio(static_cast<double>(p.traced_wall_ns),
                                     static_cast<double>(p.traced_events));
  v["sim.quantum_us_p50"] = Percentile(quanta.wall_us, 50);
  v["sim.quantum_us_p99"] = Percentile(quanta.wall_us, 99);
  v["sim.barrier_wait_share"] = Ratio(static_cast<double>(quanta.wait_ns),
                                      static_cast<double>(quanta.wall_ns));
  v["sim.cross_shard_events"] = Ratio(
      static_cast<double>(t.cross_shard_events), static_cast<double>(t.injected));
  v["sim.wall_frames_per_s"] = Median(p.wall_rate_untraced);
  v["sdn.switch_receive_ns"] = PerCall(p, kSdn);
  v["sdn.microflow_hit_ratio"] =
      Ratio(static_cast<double>(t.microflow_hits),
            static_cast<double>(t.microflow_lookups));
  v["sdn.flow_install_us"] = Ratio(static_cast<double>(setup.install_ns) / 1e3,
                                   static_cast<double>(setup.installs));
  v["proto.encap_ns"] = Percentile(p.encap_ns, 50);
  v["proto.decap_ns"] = Percentile(p.decap_ns, 50);
  v["dataplane.host_receive_ns"] = PerCall(p, kDataplane);
  v["dataplane.chain_ns_p50"] = static_cast<double>(obs.chain.Percentile(50));
  v["dataplane.launch_us"] = Ratio(static_cast<double>(setup.launch_ns) / 1e3,
                                   static_cast<double>(setup.launches));
  v["sig.scan_ns_p50"] = static_cast<double>(obs.scan.Percentile(50));
  if (dpi) {
    v["sig.scan_mb_per_s"] =
        Ratio(static_cast<double>(obs.scan.count) *
                  static_cast<double>(cfg.dpi_gen.payload_len) * 1e3,
              static_cast<double>(obs.scan.sum));
  }
  v["sig.compile_ms"] = static_cast<double>(setup.compile_ns) / 1e6;
  v["net.queue_drops"] = static_cast<double>(t.queue_drops);
  v["net.pool_foreign_releases"] = Ratio(
      static_cast<double>(t.foreign_releases), static_cast<double>(t.injected));
  v["net.sink_deliver_ns"] = PerCall(p, kNet);
  AddTraceOverheadAndShares(v, p, 0);
  EmitLayers(r, v);
  return r;
}

// --------------------------------------------------------- posture churn

RunResult RunChurn(const Args& a) {
  RunResult r;
  ChurnConfig cfg;
  cfg.seed = a.seed;
  const SimDuration window = 20 * kMillisecond;
  // One set-up costs about 20 ms of CPU, so take the median of many.
  const int setups = 7;

  Phase p;
  CpuRotation cpus(true);
  std::unique_ptr<Churn> churn;
  for (int i = 0; i < setups; ++i) {
    churn.reset();
    cpus.Next();
    const std::uint64_t t0 = i == 0 ? 0 : ThreadCpuNs();
    churn = std::make_unique<Churn>(cfg);
    churn->RunFor(window);  // warm-up: keepalives and the first flips
    p.setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
  }
  ShardAccum& acc = churn->accum();
  acc.latency_ns.clear();
  ResetObs();
  auto& dep = churn->deployment();
  const auto ctl0 = dep.controller().stats();
  const auto sw0 = dep.edge().stats();
  const auto mc0 = dep.edge().microflow_cache().stats();
  const std::uint64_t flips0 = churn->flips();

  MeasureWindows(
      a, p, cpus, [&](bool on) { churn->SetTracing(on); },
      [&] {
        const std::uint64_t before = acc.completed;
        churn->RunFor(window);
        return acc.completed - before;
      },
      Counters{ThreadCpuNs, [&] { return churn->flips_applied(); }, nullptr,
               [&] { return acc.probe_ns; }});
  p.latency_ns.push_back(acc.latency_ns);
  SumAccums(p, {&acc});
  const std::uint64_t flips = churn->flips() - flips0;
  const auto ctl = dep.controller().stats();
  const auto sw = dep.edge().stats();
  const auto mc = dep.edge().microflow_cache().stats();
  const Obs obs = ReadObs();

  churn->StopFlipsAt(churn->Now());
  churn->RunFor(window);
  const auto ka = churn->CountKeepalives();
  const auto net_totals = dep.AggregateLinkStats();

  r.attempted = churn->flips() + ka.expected;
  const std::uint64_t ka_short =
      ka.expected > ka.received ? ka.expected - ka.received : 0;
  r.failed = churn->flips_failed() + ka_short + ka.unexpected;
  if (churn->flips_failed() != 0) {
    r.Fail(std::to_string(churn->flips_failed()) +
           " flips missed their posture");
  }
  if (churn->policy_mismatches() != 0) {
    r.Fail(std::to_string(churn->policy_mismatches()) +
           " postures differ from the policy's prediction");
  }
  if (ka.missing != 0 || ka.excess != 0 || ka.unexpected != 0) {
    r.Fail("keepalives: " + std::to_string(ka.received) + " for " +
           std::to_string(ka.expected) + " due, " +
           std::to_string(ka.missing) + " devices short, " +
           std::to_string(ka.excess) + " over, " +
           std::to_string(ka.unexpected) + " unattributable");
  }
  if (net_totals.queue_drops != 0) {
    r.Fail("queue drops: " + std::to_string(net_totals.queue_drops));
  }
  r.notes.push_back("flips " + std::to_string(churn->flips()) + ", applied " +
                    std::to_string(churn->flips_applied()) + ", keepalives " +
                    std::to_string(ka.received) + "/" +
                    std::to_string(ka.expected));

  if (a.trace == 0) {
    AddCommonE2e(r, p);
    return r;
  }
  const double nf = static_cast<double>(std::max<std::uint64_t>(flips, 1));
  auto per_flip = [&](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before) / nf;
  };
  std::uint64_t policy_ns = 0;
  for (const auto v : churn->evaluate_all_ns()) policy_ns += v;

  LayerValues v;
  const std::uint64_t lookups = (mc.hits + mc.misses + mc.stale) -
                                (mc0.hits + mc0.misses + mc0.stale);
  v["sdn.microflow_hit_ratio"] = Ratio(static_cast<double>(mc.hits - mc0.hits),
                                       static_cast<double>(lookups));
  v["sdn.flowmod_ops"] =
      per_flip(sw.flowmod_ops + ctl.flow_ops, sw0.flowmod_ops + ctl0.flow_ops);
  v["dataplane.chain_ns_p50"] = static_cast<double>(obs.chain.Percentile(50));
  v["dataplane.reconfigs"] = per_flip(ctl.umbox_reconfigs, ctl0.umbox_reconfigs);
  v["sig.scan_ns_p50"] = static_cast<double>(obs.scan.Percentile(50));
  v["net.queue_drops"] = static_cast<double>(net_totals.queue_drops);
  v["net.pool_foreign_releases"] =
      Ratio(static_cast<double>(
                iotsec::net::PacketPool::Global().ForeignReleases()),
            static_cast<double>(acc.completed));
  v["net.sink_deliver_ns"] = PerCall(p, kNet);
  v["control.set_context_us"] = Percentile(churn->set_context_ns(), 50) / 1e3;
  v["control.policy_evals"] = per_flip(ctl.policy_evals, ctl0.policy_evals);
  v["control.posture_changes"] =
      per_flip(ctl.posture_changes, ctl0.posture_changes);
  v["control.reevals_coalesced"] =
      per_flip(ctl.reevals_coalesced, ctl0.reevals_coalesced);
  v["control.posture_changes_per_s"] = Median(p.flips_untraced);
  v["sim.wall_frames_per_s"] = Median(p.wall_rate_untraced);
  v["policy.evaluate_all_us"] = Percentile(churn->evaluate_all_ns(), 50) / 1e3;
  AddTraceOverheadAndShares(v, p, policy_ns);
  EmitLayers(r, v);
  return r;
}

// ------------------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a->workload = val();
    else if (k == "--seed") a->seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(val().c_str());
    else if (k == "--trace") a->trace = std::atoi(val().c_str());
    else if (k == "--git-sha") a->git_sha = val();
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// Why this build's timings mean nothing, or null if they do: it must be
/// an optimised build type, compiled with optimisation, uninstrumented.
const char* UnmeasurableBuild() {
#if !defined(__OPTIMIZE__)
  return "compiled without optimisation";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is not Release or RelWithDebInfo";
  }
  return nullptr;
#endif
}

std::string MetaJson(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"git_sha\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      a.git_sha.c_str(), std::thread::hardware_concurrency(),
#ifdef __clang__
      "clang " __VERSION__,
#else
      "g++ " __VERSION__,
#endif
      PERFBENCH_BUILD_TYPE, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  return buf;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: iotsec_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n");
    return 2;
  }
  if (const char* why = UnmeasurableBuild(); why != nullptr) {
    std::fprintf(stderr,
                 "refusing to measure this build (%s); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 why);
    return 2;
  }
  // The per-hop packet trace strings are a debugging aid every bench in
  // the repository switches off; metrics and spans stay as shipped.
  iotsec::net::SetPacketTracing(false);

  RunResult r;
  if (a.workload == "fleet_telemetry") {
    r = RunFleet(a, /*dpi=*/false);
  } else if (a.workload == "dpi_inspect") {
    r = RunFleet(a, /*dpi=*/true);
  } else if (a.workload == "posture_churn") {
    r = RunChurn(a);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }

  const std::string meta = MetaJson(a);
  std::printf("meta %s\n", meta.c_str());
  for (const auto& n : r.notes) std::printf("note %s\n", n.c_str());
  for (const auto& f : r.check_failures) std::printf("FAILED %s\n", f.c_str());
  const std::string line =
      ResultJson(r, a.trace == 0 ? r.end_to_end : r.per_layer);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
