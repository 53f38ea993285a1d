// µmbox: a micro network-security function instance.
//
// One µmbox guards one device (Figure 2). It wraps an element graph with a
// lifecycle whose boot latency depends on the isolation technology — the
// paper leans on ClickOS/Jitsu-style micro-VMs precisely because full VMs
// boot too slowly for "rapidly instantiated, frequently reconfigured"
// defenses. Bench A1 measures this trade plus hot-reconfig vs restart.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "dataplane/graph.h"
#include "sim/simulator.h"

namespace iotsec::obs {
class Counter;
}  // namespace iotsec::obs

namespace iotsec::dataplane {

enum class BootModel : std::uint8_t {
  kProcess,    // plain process exec
  kMicroVm,    // ClickOS/Jitsu-style unikernel
  kContainer,  // docker-style container
  kFullVm,     // conventional VM
};

std::string_view BootModelName(BootModel m);

/// Calibrated from the systems the paper cites: ClickOS boots ~30ms,
/// Jitsu summons unikernels in ~tens of ms, containers in hundreds of ms,
/// full VMs in tens of seconds.
SimDuration BootLatency(BootModel m);

enum class UmboxState : std::uint8_t {
  kConfigured,  // created, not yet booted
  kBooting,
  kRunning,
  kStopped,
  kCrashed,  // died at runtime; recoverable via Restart()
};

std::string_view UmboxStateName(UmboxState s);

struct UmboxSpec {
  UmboxId id = 0;
  DeviceId device = kInvalidDevice;  // device this µmbox guards
  std::string config_text;           // Click-lite graph
  BootModel boot = BootModel::kMicroVm;
  /// Packets arriving while booting are queued (true) or dropped (false).
  bool queue_while_booting = true;
  std::size_t boot_queue_limit = 256;
  /// Shard whose worker executes this µmbox's chain (0 in one-shard
  /// deployments). Selects the dp.shard.<i>.packets counter.
  int shard = 0;
};

class Umbox {
 public:
  /// Builds the graph immediately; returns nullptr with *error if the
  /// config is invalid (so bad configs fail at orchestration time, not
  /// in the dataplane).
  static std::unique_ptr<Umbox> Create(UmboxSpec spec,
                                       const ElementContext& ctx,
                                       std::string* error);

  [[nodiscard]] const UmboxSpec& spec() const { return spec_; }
  [[nodiscard]] UmboxState state() const { return state_; }

  /// Packets currently parked waiting for a boot to finish (admission
  /// control's boot-queue pressure input).
  [[nodiscard]] std::size_t boot_queue_depth() const {
    return boot_queue_.size();
  }

  /// Begins booting; `on_ready` fires after the boot-model latency, after
  /// which queued packets drain through the graph.
  void Boot(std::function<void()> on_ready = nullptr);

  /// Processes one (already decapsulated) frame.
  void Process(net::PacketPtr pkt);

  /// Hot reconfiguration: builds the new graph and swaps it in atomically
  /// between packets — zero downtime, zero drops. Returns false (old
  /// graph stays) if the new config is invalid.
  bool Reconfigure(const std::string& new_config, std::string* error);

  /// Cold restart with a new config: tears the graph down and pays boot
  /// latency again; traffic in between queues or drops per the spec.
  bool Restart(const std::string& new_config, std::string* error,
               std::function<void()> on_ready = nullptr);

  void Stop() { state_ = UmboxState::kStopped; }

  /// Simulated runtime failure (fault injection): the instance stops
  /// processing, queued boot traffic is lost, and any in-flight boot is
  /// abandoned. A crashed instance accepts Restart() but nothing else.
  void Crash();

  void SetEgress(std::function<void(net::PacketPtr)> egress);
  void SetAlertSink(std::function<void(Alert)> sink);

  [[nodiscard]] MboxGraph* graph() const { return graph_.get(); }

  struct Stats {
    std::uint64_t processed = 0;
    std::uint64_t queued_during_boot = 0;
    /// Total boot-time drops (= dropped_queue_full + dropped_unqueued).
    std::uint64_t dropped_during_boot = 0;
    std::uint64_t dropped_queue_full = 0;  // boot_queue_limit exceeded
    std::uint64_t dropped_unqueued = 0;    // queue_while_booting == false
    /// Frames that arrived at (or were queued in) a crashed instance.
    std::uint64_t dropped_crashed = 0;
    std::uint64_t reconfigs = 0;
    std::uint64_t restarts = 0;
    std::uint64_t crashes = 0;
    SimTime last_boot_started = 0;
    SimTime last_ready = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Umbox(UmboxSpec spec, const ElementContext& ctx)
      : spec_(std::move(spec)), ctx_(ctx) {}

  void DrainBootQueue();

  UmboxSpec spec_;
  ElementContext ctx_;
  std::unique_ptr<MboxGraph> graph_;
  UmboxState state_ = UmboxState::kConfigured;
  /// Bumped by every Boot(); stale ready-timers from an interrupted boot
  /// check it and no-op (see Boot()).
  std::uint64_t boot_generation_ = 0;
  std::deque<net::PacketPtr> boot_queue_;
  std::function<void(net::PacketPtr)> egress_;
  std::function<void(Alert)> alert_sink_;
  Stats stats_;
  /// Cached dp.shard.<spec_.shard>.packets handle (no per-packet lookup).
  obs::Counter* shard_packets_ = nullptr;
};

}  // namespace iotsec::dataplane
