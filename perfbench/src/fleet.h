// The frame-path workloads' topology, built from the public dataplane API
// the same way core::ShardedFleet builds its fleet: `slices` edge slices,
// each with one switch, one µmbox host, a collector and an aggregator;
// one µmbox per device, steered by an in_port flow entry; 1/8 of devices
// also send to another slice's aggregator over inter-switch links.
//
// The benchmark interposes only at boundaries it owns:
//   * device frames enter switches through a direct, timed Switch::Receive;
//   * frames a link delivers to a switch or host pass a timing sink first;
//   * collectors and aggregators are the benchmark's own terminal sinks,
//     which check every delivered frame;
//   * ShardSet::RunUntil's barrier hook times each quantum.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "dataplane/cluster.h"
#include "gen.h"
#include "net/link.h"
#include "net/packet.h"
#include "sdn/switch.h"
#include "sig/compiled_ruleset.h"
#include "sim/shard_set.h"
#include "stats.h"

namespace perfbench {

struct FleetConfig {
  FleetGen gen;
  int shards = 1;
  bool threads = true;
  /// Lockstep quantum and inter-switch link latency.
  SimDuration quantum = 100 * iotsec::kMicrosecond;
  /// DPI mode: TCP frames with DpiGen payloads, SignatureMatcher µmboxes.
  bool dpi = false;
  DpiGen dpi_gen;
  /// Sends per device before a device stops (0 = until SendUntil()).
  int max_sends = 0;
  /// Fold every delivered frame's bytes into the end-state digest. Only
  /// the shard-count replay needs it; hashing a 1.5 KB frame per delivery
  /// would otherwise be 8% of dpi_inspect's measured time.
  bool digest = false;
};

/// Set-up costs measured while the fleet is built.
struct SetupCosts {
  std::uint64_t launch_ns = 0;
  std::uint64_t launches = 0;
  std::uint64_t install_ns = 0;
  std::uint64_t installs = 0;
  std::uint64_t compile_ns = 0;
};

class Fleet {
 public:
  /// Builds, launches and warms the whole fleet; sends start at
  /// `start()` of simulated time.
  explicit Fleet(FleetConfig config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Advances every shard to `t`, calling the barrier hook per quantum.
  void RunTo(iotsec::SimTime t);
  [[nodiscard]] iotsec::SimTime Now() const { return set_->Now(); }
  [[nodiscard]] iotsec::SimTime start() const { return start_; }

  /// No device sends at or after simulated time `t`.
  void SendUntil(iotsec::SimTime t) {
    send_until_.store(t, std::memory_order_relaxed);
  }

  /// Turns the traced mode on or off; call only between RunTo()s.
  void SetTracing(bool on);

  [[nodiscard]] const SetupCosts& setup() const { return setup_; }
  [[nodiscard]] int shard_count() const { return set_->shard_count(); }
  [[nodiscard]] const ShardAccum& accum(int s) const {
    return accums_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] ShardAccum& accum(int s) {
    return accums_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t Completed() const;
  /// Critical-path CPU time so far: per quantum, the CPU time of the
  /// busiest shard thread, summed over quanta.
  [[nodiscard]] std::uint64_t CriticalPathNs() const { return crit_ns_; }
  [[nodiscard]] std::uint64_t EventsProcessed();

  /// Per-quantum timings collected while tracing.
  struct QuantumTrace {
    std::vector<double> wall_us;
    std::uint64_t wall_ns = 0;
    std::uint64_t wait_ns = 0;
  };
  [[nodiscard]] const QuantumTrace& quanta() const { return quanta_; }

  /// End-of-run accounting, valid once in-flight frames have drained.
  struct Totals {
    std::uint64_t injected = 0;
    std::uint64_t planted_injected = 0;
    std::uint64_t processed = 0;  // frames through µmbox chains
    std::uint64_t delivered = 0;
    std::uint64_t blocked = 0;
    std::uint64_t bad_delivery = 0;
    std::uint64_t bad_block = 0;
    std::uint64_t digest = 0;
    std::uint64_t late_posts = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t foreign_releases = 0;
    std::uint64_t cross_shard_events = 0;
    std::uint64_t microflow_hits = 0;
    std::uint64_t microflow_lookups = 0;
  };
  [[nodiscard]] Totals Collect() const;

 private:
  struct Slice;
  struct Dev;
  class SwitchTap;
  class HostTap;
  class TerminalSink;

  void BuildSlices();
  void BuildDevices();
  void WarmCaches();
  void SendOne(std::size_t index);
  void Inject(Slice& slice, iotsec::net::PacketPtr pkt, int in_port,
              ShardAccum& acc);
  void OnBarrier();
  /// Classifies a frame seen at simulated time `now`: returns its sender
  /// (or null), the send time and whether that send was planted.
  Dev* Identify(const iotsec::proto::ParsedFrame& frame, iotsec::SimTime now,
                iotsec::SimTime* sent, bool* planted);
  void ProbeTunnel(const iotsec::net::Packet& pkt, ShardAccum& acc);

  // Latency samples. A sampled send's frame is timed hop by hop, from its
  // injection into the ingress switch until its delivery or block verdict.
  // A hop takes microseconds, so the wall clock serves: a CPU clock read
  // costs ~350 ns, a tenth of a hop, against ~40 ns. Packet::created_at
  // (the send time, which identifies the sending device) reaches every
  // hop of the program's path; while the frame is in flight it keys the
  // frame's running total in its shard's map.
  [[nodiscard]] static bool SampledSend(iotsec::SimTime sent);
  /// Runs one hop of the frame sent at `created_at`, timing it if sampled.
  template <typename Call>
  void Hop(iotsec::SimTime created_at, Call&& call);
  /// Records the frame sent at `sent` as complete, if it was sampled.
  void CompleteSample(iotsec::SimTime sent, ShardAccum& acc);

  [[nodiscard]] int Shard() const {
    return iotsec::sim::ShardSet::CurrentShard();
  }
  [[nodiscard]] ShardAccum& Here() {
    return accums_[static_cast<std::size_t>(Shard())];
  }
  [[nodiscard]] int ShardOfSlice(int slice) const {
    return slice % config_.shards;
  }

  FleetConfig config_;
  SetupCosts setup_;
  std::vector<std::unique_ptr<iotsec::net::PacketPool>> pools_;
  std::unique_ptr<iotsec::sim::ShardSet> set_;
  std::vector<ShardAccum> accums_;
  /// Per shard: sampled frames in flight, send time -> CPU ns so far.
  std::vector<std::unordered_map<iotsec::SimTime, std::uint64_t>> inflight_;
  std::shared_ptr<const iotsec::sig::CompiledRuleset> compiled_;
  std::vector<std::unique_ptr<Slice>> slices_;
  std::vector<std::unique_ptr<iotsec::net::Link>> links_;
  std::vector<Dev> devices_;
  iotsec::SimTime start_ = 0;
  std::atomic<iotsec::SimTime> send_until_{~iotsec::SimTime{0}};
  std::atomic<bool> tracing_{false};
  QuantumTrace quanta_;
  std::uint64_t last_hook_ns_ = 0;
  std::vector<std::uint64_t> last_wrapped_;
  std::vector<clockid_t> shard_clocks_;
  std::vector<std::uint64_t> last_cpu_;
  std::uint64_t crit_ns_ = 0;
};

}  // namespace perfbench
