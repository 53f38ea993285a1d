// Fleet-scale sharded dataplane: the million-device vehicle.
//
// A Deployment models one smart home in full behavioral detail; a
// ShardedFleet models the paper's end-state — a metro-scale population of
// devices, each behind its own µmbox — with just enough per-device state
// to exercise the real dataplane (switch classification through the
// microflow cache, tunnel encap to a µmbox host, per-device element
// chains, tunnel return, L2 forwarding) at 10^5..10^6 devices.
//
// Topology — fixed, shard-count-independent:
//   * `slices` edge slices (default 8). Slice s owns switch 100+s, one
//     UmboxHost, a telemetry collector port, and one aggregator node.
//     Devices are assigned round-robin (id % slices).
//   * Every device gets a µmbox (VNI = device id) on its slice's host;
//     its frames are steered there by an in_port flow entry and return
//     through the tunnel path before normal L2 forwarding.
//   * Telemetry goes to the slice-local collector, one frame every 10 ms.
//     An eighth of the devices also send to another slice's aggregator
//     over inter-switch links — that is the traffic that crosses shard
//     mailboxes.
//
// Execution: slice s runs on shard (s % shards) of a sim::ShardSet. The
// topology never changes with the shard count, only its placement — so
// the end-state digest (an order-independent fold of every delivered
// frame's receiver/time/content) must be bit-identical at any shard
// count, which is the determinism gate bench_scale enforces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "dataplane/cluster.h"
#include "net/link.h"
#include "net/packet.h"
#include "sdn/switch.h"
#include "sim/shard_set.h"

namespace iotsec::core {

struct FleetOptions {
  int devices = 1000;
  int shards = 1;
  /// Worker threads for shards 1..N-1 (false = inline, same results).
  bool threads = true;
  /// Edge slices (switch+host+collector groups). Fixed across shard
  /// counts so digests stay comparable; shards beyond `slices` idle.
  int slices = 8;
  /// Lockstep quantum; also the inter-switch link latency (the
  /// conservative lookahead bound).
  SimDuration quantum = 100 * kMicrosecond;
  /// Telemetry sends per device.
  int packets_per_device = 4;
  std::uint64_t seed = 0x5EED;
};

struct FleetResult {
  std::uint64_t injected = 0;        // frames entered at edge switches
  std::uint64_t processed = 0;       // frames through µmbox chains
  std::uint64_t delivered = 0;       // frames folded into the digest
  std::uint64_t cross_shard_events = 0;
  std::uint64_t late_posts = 0;
  std::uint64_t foreign_releases = 0;
  /// Order-independent end-state digest over every delivered frame's
  /// (receiver, delivery time, content) — the determinism witness.
  std::uint64_t digest = 0;
  double wall_seconds = 0.0;
  double packets_per_second = 0.0;
  std::vector<std::uint64_t> per_slice_processed;
};

class ShardedFleet {
 public:
  explicit ShardedFleet(FleetOptions options);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// Boots every µmbox, runs the send schedule to completion, and
  /// returns the measurements. One-shot.
  FleetResult Run();

  [[nodiscard]] sim::ShardSet& shard_set() { return *set_; }
  [[nodiscard]] const FleetOptions& options() const { return options_; }

 private:
  struct Slice;
  struct DigestSink;

  void BuildSlices();
  void BuildDevices();
  void WarmCaches();
  /// Injects device `dev_index`'s frame(s) and reschedules itself until
  /// packets_per_device sends are done. Runs on the device's shard.
  void SendOne(std::size_t dev_index);
  [[nodiscard]] int SliceOf(DeviceId id) const;
  [[nodiscard]] int ShardOfSlice(int slice) const;

  FleetOptions options_;
  std::vector<std::unique_ptr<net::PacketPool>> pools_;
  std::unique_ptr<sim::ShardSet> set_;
  std::vector<std::unique_ptr<Slice>> slices_;
  std::vector<std::unique_ptr<net::Link>> links_;

  struct FleetDevice {
    DeviceId id = 0;
    int slice = 0;
    int in_port = 0;          // virtual ingress port on the slice switch
    Bytes telemetry_frame;
    Bytes cross_frame;        // empty unless a cross sender
    int sends_done = 0;
  };
  std::vector<FleetDevice> devices_;
};

}  // namespace iotsec::core
