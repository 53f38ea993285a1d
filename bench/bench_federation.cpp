// Federation bench: flat vs hierarchical control plane under churn.
//
// Part A sweeps a control-plane-only churn model from 10k to 100k
// devices: per-segment context-transition storms, device join/leave flaps
// and periodic host heartbeats, replayed from one deterministic trace
// into two arms:
//
//   flat       every event is one message to the one controller (plus one
//              message per flow-mod op), serviced by a single global
//              FIFO queue — which saturates at 100k devices.
//   federated  per-segment local controllers absorb the high-frequency
//              work; cross-segment keys ride versioned delta syncs (one
//              message per dirty segment per epoch + one wakeup per
//              dependent), heartbeats aggregate into one summary per
//              epoch, and flow-mods ride RulePushBatcher batches.
//
// Convergence = event occurrence -> decision applied (service completion
// + controller RTT; cross-segment reads additionally wait for the sync
// epoch that ships them).
//
// Part B runs one real federated Deployment (segment cap 1, so the
// delta-sync path is live end-to-end) at 1, 2 and 8 dataplane shards.
//
// Acceptance gates:
//   * flat/federated message ratio >= 5x at the 100k cell (HARD)
//   * federated mean convergence <= flat mean convergence at 100k (HARD)
//   * federated sync+push digest bit-identical across {1, 2, 8} shards
//     (HARD — determinism is never relaxed)
//   * total wall clock under budget — relaxed when IOTSEC_BENCH_LAX_PERF
//     is on (lax_perf.h; CI shared runners)
//
// Emits BENCH_federation.json; exit 1 on any hard-gate failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "lax_perf.h"
#include "common/rng.h"
#include "common/stats.h"
#include "control/delta_sync.h"
#include "control/federation.h"
#include "control/hierarchy.h"
#include "core/iotsec.h"
#include "sdn/switch.h"

using namespace iotsec;

namespace {

// ---------------------------------------------------------------- Part A

constexpr int kSegmentSize = 64;
constexpr SimDuration kDuration = 5 * kSecond;
constexpr SimDuration kStormPeriod = 2 * kSecond;   // per segment
constexpr SimDuration kStormWindow = 2 * kMillisecond;
constexpr SimDuration kHeartbeatPeriod = 2 * kSecond;  // per device
constexpr SimDuration kSyncPeriod = 5 * kMillisecond;
constexpr SimDuration kServiceTime = 15 * kMicrosecond;  // per event
constexpr SimDuration kLocalRtt = 200 * kMicrosecond;
constexpr SimDuration kGlobalRtt = 2 * kMillisecond;
constexpr int kCrossEvery = 20;  // 1-in-N devices has a remote reader
constexpr int kRuleEvery = 5;    // 1-in-N transitions changes flow rules

enum class ChurnKind : std::uint8_t { kTransition, kHeartbeat, kLeave, kJoin };

struct ChurnEvent {
  SimTime at = 0;
  ChurnKind kind = ChurnKind::kTransition;
  int segment = 0;
  int device = 0;  // global device index
};

/// One deterministic churn trace, replayed identically into both arms.
std::vector<ChurnEvent> MakeTrace(int devices, std::uint64_t seed) {
  const int segments = (devices + kSegmentSize - 1) / kSegmentSize;
  Rng rng(seed);
  std::vector<ChurnEvent> trace;

  // Context-transition storms: correlated bursts — one whole segment's
  // devices transition within a few milliseconds (the paper's "alarm
  // trips, every device in the room reacts" pattern).
  for (int seg = 0; seg < segments; ++seg) {
    const SimTime phase = rng.NextBelow(kStormPeriod);
    for (SimTime t = phase; t < kDuration; t += kStormPeriod) {
      const int first = seg * kSegmentSize;
      const int last = std::min(first + kSegmentSize, devices);
      for (int dev = first; dev < last; ++dev) {
        trace.push_back({t + rng.NextBelow(kStormWindow),
                         ChurnKind::kTransition, seg, dev});
      }
    }
  }
  // Heartbeats: every device, phase-spread.
  for (int dev = 0; dev < devices; ++dev) {
    const SimTime phase =
        (static_cast<SimTime>(dev) * 997 * kMicrosecond) % kHeartbeatPeriod;
    for (SimTime t = phase; t < kDuration; t += kHeartbeatPeriod) {
      trace.push_back({t, ChurnKind::kHeartbeat, dev / kSegmentSize, dev});
    }
  }
  // Join/leave flaps: one device per segment drops and rejoins once.
  for (int seg = 0; seg < segments; ++seg) {
    const int dev = seg * kSegmentSize;
    const SimTime leave = rng.NextBelow(kDuration / 2);
    trace.push_back({leave, ChurnKind::kLeave, seg, dev});
    trace.push_back({leave + kSecond, ChurnKind::kJoin, seg, dev});
  }
  return trace;
}

sdn::FlowEntry DeviceEntry(int device, int priority) {
  sdn::FlowEntry entry;
  entry.priority = priority;
  entry.cookie = 0x1000000ull + static_cast<std::uint64_t>(device);
  entry.actions.push_back(sdn::FlowAction::Drop());
  return entry;
}

struct ChurnResult {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;       // global control-fabric messages
  std::uint64_t event_msgs = 0;     // per-event reports (flat only)
  std::uint64_t flowmod_msgs = 0;   // per-op (flat) / per-batch (fed)
  std::uint64_t sync_msgs = 0;      // deltas + dependent wakeups
  std::uint64_t heartbeat_msgs = 0; // raw (flat) / per-epoch summary (fed)
  std::uint64_t ops_coalesced = 0;
  SampleStats latency_us;
  double wall_seconds = 0;
};

ChurnResult RunFlatChurn(const std::vector<ChurnEvent>& trace) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  control::EventProcessor global(sim, kServiceTime);
  ChurnResult r;

  for (const ChurnEvent& ev : trace) {
    sim.At(ev.at, [&r, &global, &sim, ev] {
      ++r.events;
      ++r.event_msgs;  // one report to the one controller
      const bool rule_change = ev.kind == ChurnKind::kTransition &&
                               ev.device % kRuleEvery == 0;
      // Flat flow programming: every op is its own message.
      if (rule_change || ev.kind == ChurnKind::kJoin) r.flowmod_msgs += 2;
      if (ev.kind == ChurnKind::kLeave) r.flowmod_msgs += 1;
      if (ev.kind == ChurnKind::kHeartbeat) {
        ++r.heartbeat_msgs;
        --r.event_msgs;  // the heartbeat *is* the message
        return;          // no decision latency to sample
      }
      const SimTime born = sim.Now();
      global.Submit([&r, born](SimTime done) {
        r.latency_us.Add(static_cast<double>(done - born + kGlobalRtt) /
                         static_cast<double>(kMicrosecond));
      });
    });
  }
  sim.RunUntil(kDuration + kSecond);  // bounded drain: saturation stays
                                      // visible in the sampled latencies
  r.messages = r.event_msgs + r.flowmod_msgs + r.heartbeat_msgs;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

ChurnResult RunFederatedChurn(int devices,
                              const std::vector<ChurnEvent>& trace) {
  const auto wall_start = std::chrono::steady_clock::now();
  const int segments = (devices + kSegmentSize - 1) / kSegmentSize;
  sim::Simulator sim;
  ChurnResult r;

  // Per-segment local controllers, one edge switch per segment, shared
  // delta-sync machinery — the same primitives the deployment path uses.
  std::vector<std::unique_ptr<control::EventProcessor>> locals;
  std::vector<std::unique_ptr<sdn::Switch>> switches;
  std::vector<control::SegmentStateView> views;
  for (int seg = 0; seg < segments; ++seg) {
    locals.push_back(
        std::make_unique<control::EventProcessor>(sim, kServiceTime));
    switches.push_back(std::make_unique<sdn::Switch>(
        static_cast<SwitchId>(seg + 1), sim,
        sdn::Switch::MissBehavior::kDrop));
    views.emplace_back(seg);
  }
  control::GlobalStateStore global;
  for (int dev = 0; dev < devices; dev += kCrossEvery) {
    // Each cross device's key is read by the next segment over.
    const int owner = dev / kSegmentSize;
    global.AddDependency("ctx:" + std::to_string(dev), owner);
    global.AddDependency("ctx:" + std::to_string(dev),
                         (owner + 1) % segments);
  }
  control::RulePushBatcher batcher(sim);  // control::kPushQuantum ticker
  batcher.Start();

  // Earliest un-synced change per key: cross-segment convergence is
  // event -> the sync epoch that ships it -> reader notified.
  std::map<std::string, SimTime> pending_cross;
  std::uint64_t value_counter = 0;
  std::uint64_t heartbeats_since_sync = 0;

  sim.Every(kSyncPeriod, [&] {
    for (auto& view : views) {
      if (!view.HasDirty()) continue;
      const control::StateDelta delta = view.DrainDelta();
      ++r.sync_msgs;  // one segment -> global delta message
      const auto dependents = global.Apply(delta);
      r.sync_msgs += dependents.size();  // one wakeup per reader segment
      for (const auto& entry : delta.entries) {
        const auto it = pending_cross.find(entry.key);
        if (it == pending_cross.end()) continue;
        r.latency_us.Add(
            static_cast<double>(sim.Now() + kGlobalRtt - it->second) /
            static_cast<double>(kMicrosecond));
        pending_cross.erase(it);
      }
    }
    if (heartbeats_since_sync > 0) {
      heartbeats_since_sync = 0;
      ++r.heartbeat_msgs;  // one aggregated summary per epoch
    }
  });

  for (const ChurnEvent& ev : trace) {
    sim.At(ev.at, [&, ev] {
      ++r.events;
      if (ev.kind == ChurnKind::kHeartbeat) {
        ++heartbeats_since_sync;  // absorbed by the local tier
        return;
      }
      sdn::Switch* sw = switches[static_cast<std::size_t>(ev.segment)].get();
      if (ev.kind == ChurnKind::kTransition && ev.device % kRuleEvery == 0) {
        batcher.RemoveByCookie(
            sw, 0x1000000ull + static_cast<std::uint64_t>(ev.device),
            /*urgent=*/false);
        batcher.Install(sw, DeviceEntry(ev.device, 10), /*urgent=*/false);
      } else if (ev.kind == ChurnKind::kLeave) {
        batcher.RemoveByCookie(
            sw, 0x1000000ull + static_cast<std::uint64_t>(ev.device),
            /*urgent=*/false);
      } else if (ev.kind == ChurnKind::kJoin) {
        batcher.Install(sw, DeviceEntry(ev.device, 5), /*urgent=*/false);
        batcher.Install(sw, DeviceEntry(ev.device, 10), /*urgent=*/false);
      }
      if (ev.kind == ChurnKind::kTransition && ev.device % kCrossEvery == 0) {
        const std::string key = "ctx:" + std::to_string(ev.device);
        views[static_cast<std::size_t>(ev.segment)].Set(
            key, std::to_string(++value_counter));
        pending_cross.emplace(key, sim.Now());  // keep the earliest
      }
      const SimTime born = sim.Now();
      locals[static_cast<std::size_t>(ev.segment)]->Submit(
          [&r, born](SimTime done) {
            r.latency_us.Add(static_cast<double>(done - born + kLocalRtt) /
                             static_cast<double>(kMicrosecond));
          });
    });
  }
  sim.RunUntil(kDuration + kSecond);

  std::uint64_t table_pushes = 0;
  for (const auto& sw : switches) table_pushes += sw->stats().flowmod_batches;
  r.flowmod_msgs = batcher.stats().pushes;
  r.ops_coalesced = batcher.stats().ops_coalesced;
  r.messages = r.sync_msgs + r.flowmod_msgs + r.heartbeat_msgs;
  (void)table_pushes;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

// ---------------------------------------------------------------- Part B

struct FedRunResult {
  std::uint64_t digest = 0;
  std::uint64_t sync_messages = 0;
  std::uint64_t push_messages = 0;
  std::uint64_t ops_coalesced = 0;
  bool converged = false;
  double wall_seconds = 0;
};

/// One real federated deployment (segment cap 1: the cam->lock quarantine
/// rule crosses segments, so context changes ride the delta sync) at a
/// given dataplane shard count.
FedRunResult RunDeployment(int shards) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::FlightRecorder::Global().Clear();

  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.federation.enabled = true;
  opts.federation.max_segment_devices = 1;
  core::Deployment dep(opts);
  dep.AddCamera("cam");
  dep.AddSmartLock("lock");
  dep.AddLightBulb("bulb");
  dep.AddSmartPlug("plug", "plug_power");

  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule rule;
  rule.name = "lock-down-on-cam-compromise";
  rule.when = policy::StatePredicate::Eq("ctx:cam", "compromised");
  rule.device = dep.Find("lock")->id();
  rule.posture = core::QuarantinePosture();
  rule.priority = 10;
  policy.Add(rule);
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();

  dep.RunFor(2 * kSecond);
  dep.controller().SetDeviceContext("cam", "suspicious");
  dep.RunFor(kSecond);
  dep.controller().SetDeviceContext("cam", "compromised");
  dep.RunFor(2 * kSecond);

  FedRunResult r;
  auto* fed = dep.federation();
  r.digest = dep.federation()->CombinedDigest();
  r.sync_messages = fed->stats().context_syncs;
  r.push_messages = fed->batcher().stats().pushes;
  r.ops_coalesced = fed->batcher().stats().ops_coalesced;
  r.converged = dep.controller().PostureProfileOf(dep.Find("lock")->id()) ==
                "quarantine";
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main() {
  const bool lax_perf = bench::LaxPerf();
  const auto bench_start = std::chrono::steady_clock::now();

  struct Row {
    int devices;
    const char* arm;
    ChurnResult r;
  };
  std::vector<Row> rows;
  double ratio_100k = 0;
  double flat_mean_100k = 0, fed_mean_100k = 0;

  std::printf("== Part A: churn sweep, flat vs federated ==\n");
  for (const int devices : {10000, 30000, 100000}) {
    const auto trace = MakeTrace(devices, /*seed=*/0xFEDC0DEull);
    const ChurnResult flat = RunFlatChurn(trace);
    const ChurnResult fed = RunFederatedChurn(devices, trace);
    rows.push_back({devices, "flat", flat});
    rows.push_back({devices, "federated", fed});
    const double ratio =
        fed.messages > 0
            ? static_cast<double>(flat.messages) /
                  static_cast<double>(fed.messages)
            : 0;
    for (const Row& row : {Row{devices, "flat", flat},
                           Row{devices, "federated", fed}}) {
      std::printf(
          "%6dk %-9s msgs=%8llu (events=%llu sync=%llu flowmod=%llu "
          "hb=%llu)  mean=%9.1fus p99=%11.1fus  wall=%.1fs\n",
          devices / 1000, row.arm,
          static_cast<unsigned long long>(row.r.messages),
          static_cast<unsigned long long>(row.r.event_msgs),
          static_cast<unsigned long long>(row.r.sync_msgs),
          static_cast<unsigned long long>(row.r.flowmod_msgs),
          static_cast<unsigned long long>(row.r.heartbeat_msgs),
          row.r.latency_us.Mean(), row.r.latency_us.Percentile(99),
          row.r.wall_seconds);
    }
    std::printf("        message ratio flat/federated = %.1fx\n", ratio);
    if (devices == 100000) {
      ratio_100k = ratio;
      flat_mean_100k = flat.latency_us.Mean();
      fed_mean_100k = fed.latency_us.Mean();
    }
  }

  std::printf("\n== Part B: deployment digest across shard counts ==\n");
  struct FedRow {
    int shards;
    FedRunResult r;
  };
  std::vector<FedRow> fed_rows;
  bool deterministic = true;
  bool converged = true;
  std::uint64_t ref_digest = 0;
  for (const int shards : {1, 2, 8}) {
    const FedRunResult r = RunDeployment(shards);
    fed_rows.push_back({shards, r});
    std::printf("  shards=%d digest=%s syncs=%llu pushes=%llu "
                "coalesced=%llu converged=%s\n",
                shards, Hex(r.digest).c_str(),
                static_cast<unsigned long long>(r.sync_messages),
                static_cast<unsigned long long>(r.push_messages),
                static_cast<unsigned long long>(r.ops_coalesced),
                r.converged ? "yes" : "NO");
    converged = converged && r.converged;
    if (shards == 1) {
      ref_digest = r.digest;
    } else if (r.digest != ref_digest) {
      deterministic = false;
      std::printf("!! DETERMINISM VIOLATION at %d shards\n", shards);
    }
  }

  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  const bool ratio_pass = ratio_100k >= 5.0;
  const bool convergence_pass =
      converged && fed_mean_100k <= flat_mean_100k;
  const double wall_budget = 240.0;
  const bool wall_pass = lax_perf || total_wall <= wall_budget;
  const bool pass =
      ratio_pass && convergence_pass && deterministic && wall_pass;

  if (FILE* json = std::fopen("BENCH_federation.json", "w")) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Key("churn_cells");
    w.BeginArray();
    for (const Row& row : rows) {
      w.BeginObject();
      w.Field("devices", static_cast<std::uint64_t>(row.devices));
      w.Field("arm", row.arm);
      w.Field("events", row.r.events);
      w.Field("messages", row.r.messages);
      w.Field("event_messages", row.r.event_msgs);
      w.Field("sync_messages", row.r.sync_msgs);
      w.Field("flowmod_messages", row.r.flowmod_msgs);
      w.Field("heartbeat_messages", row.r.heartbeat_msgs);
      w.Field("ops_coalesced", row.r.ops_coalesced);
      w.Field("mean_latency_us", row.r.latency_us.Mean(), 1);
      w.Field("p99_latency_us", row.r.latency_us.Percentile(99), 1);
      w.Field("wall_seconds", row.r.wall_seconds, 3);
      w.EndObject();
    }
    w.EndArray();
    w.Key("deployment_cells");
    w.BeginArray();
    for (const FedRow& row : fed_rows) {
      w.BeginObject();
      w.Field("shards", static_cast<std::uint64_t>(row.shards));
      w.Key("digest");
      w.Value(Hex(row.r.digest));
      w.Field("sync_messages", row.r.sync_messages);
      w.Field("push_messages", row.r.push_messages);
      w.Field("ops_coalesced", row.r.ops_coalesced);
      w.Field("converged", row.r.converged);
      w.Field("wall_seconds", row.r.wall_seconds, 3);
      w.EndObject();
    }
    w.EndArray();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("message_ratio_100k", ratio_100k, 1);
    w.Field("required_ratio", 5.0, 1);
    w.Field("flat_mean_latency_us_100k", flat_mean_100k, 1);
    w.Field("federated_mean_latency_us_100k", fed_mean_100k, 1);
    w.Field("deterministic", deterministic);
    w.Field("converged", converged);
    w.Field("total_wall_seconds", total_wall, 1);
    w.Field("wall_budget_seconds", wall_budget, 0);
    w.Field("lax_perf", lax_perf);
    w.Field("ratio_pass", ratio_pass);
    w.Field("convergence_pass", convergence_pass);
    w.Field("wall_pass", wall_pass);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_federation.json\n");
  }

  std::printf(
      "message ratio @100k: %.1fx (need >= 5.0)\nconvergence @100k: "
      "federated %.1fus vs flat %.1fus (need <=)\ndeterministic: %s  "
      "wall: %.1fs\n",
      ratio_100k, fed_mean_100k, flat_mean_100k,
      deterministic ? "yes" : "NO", total_wall);
  return pass ? 0 : 1;
}
