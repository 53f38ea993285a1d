// The logically centralized IoTSec controller (§5, Figure 2).
//
// Responsibilities:
//   - maintain the global view from device telemetry, environment sensor
//     feeds and µmbox alerts (each arriving after a control latency);
//   - infer security contexts (devices with known flaws start
//     "unpatched"; alerts escalate to "suspicious"/"compromised");
//   - on every view change, re-evaluate the FSM policy and diff postures;
//   - drive the orchestrator: launch/hot-reconfigure µmboxes on the
//     cluster and (re)program edge-switch flow tables, version-stamped
//     for consistent updates.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "control/admission.h"
#include "control/audit.h"
#include "control/health.h"
#include "control/view.h"
#include "dataplane/cluster.h"
#include "devices/device.h"
#include "env/environment.h"
#include "learn/crowd.h"
#include "policy/fsm_policy.h"
#include "sdn/switch.h"

namespace iotsec::rollout {
class RolloutCoordinator;
}  // namespace iotsec::rollout

namespace iotsec::control {

class FederatedControlPlane;

struct ControllerConfig {
  /// Event arrival -> decision latency (RPC + processing).
  SimDuration control_latency = kMillisecond;
  /// Isolation technology for launched µmboxes.
  dataplane::BootModel umbox_boot = dataplane::BootModel::kMicroVm;
  /// When a posture cannot be enforced (cluster full, launch failure):
  /// true = install drop rules for the device (fail closed);
  /// false = leave plain L2 forwarding in place (fail open).
  bool fail_closed = true;

  // ---- Self-healing (heartbeats + automatic recovery; always on). The
  // heartbeat cadence is kHeartbeatPeriod (control/health.h).
  /// Recovery attempts per detected failure before giving up (the device
  /// then stays in its fail-closed/fail-open fallback).
  int max_restart_attempts = 6;
  /// Seed for the backoff-jitter stream (determinism).
  std::uint64_t recovery_seed = 0x5EA1;
  /// Boot-queue bound stamped onto every µmbox the controller launches
  /// (packets parked while an instance boots; overflow is dropped and
  /// counted). Zero with queue_while_booting on is a guaranteed
  /// boot-window blackhole — iotsec-verify flags it (G007).
  std::size_t boot_queue_limit = 256;
};

class IoTSecController final : public sdn::PacketInHandler,
                               public net::PacketSink {
 public:
  IoTSecController(sim::Simulator& simulator, ControllerConfig config = {});

  // ---- Wiring (called once while building the deployment).
  void ManageSwitch(sdn::Switch* sw, int port_to_cluster);
  /// Maps one cluster host's uplink to its port on `sw`; diversion rules
  /// for a µmbox tunnel out the port of the host actually serving it.
  /// Call after ManageSwitch.
  void MapHostPort(sdn::Switch* sw, ServerId host, int port);
  void SetCluster(dataplane::Cluster* cluster);
  /// Registers a device attached to `sw` at `port`; installs its L2 entry
  /// and starts its context as "unpatched" (has flaws) or "normal".
  void RegisterDevice(devices::Device* device, sdn::Switch* sw, int port);
  /// Registers a non-device endpoint (controller uplink, WAN gateway).
  void RegisterEndpoint(const net::MacAddress& mac, sdn::Switch* sw,
                        int port);
  /// Environment sensor feed: level changes reach the view after the
  /// control latency.
  void BindEnvironment(env::Environment* environment);
  void SetPolicy(policy::StateSpace space, policy::FsmPolicy policy);

  /// Crowd-to-enforcement pipeline (§4.1 -> §5): subscribes to the
  /// repository for every registered device's SKU. When a signature is
  /// accepted, the µmboxes of matching devices are hot-reconfigured with
  /// the new rule prepended to their chains — the herd gets immunity
  /// without anyone touching policy. Call after all devices registered.
  void AttachCrowdRepo(learn::CrowdRepo* repo);

  /// Switches the crowd path from flat whole-fleet fan-out to the staged
  /// OTA pipeline: registers every managed device with the coordinator,
  /// installs the controller as its compile applier, and routes accepted
  /// signatures to OnVersionCut instead of the immediate repatch. Call
  /// after all devices registered and before AttachCrowdRepo.
  void SetRollout(rollout::RolloutCoordinator* rollout);

  /// Installs base forwarding + initial postures. Call after wiring.
  void Start();

  // ---- Live interfaces.
  void OnPacketIn(SwitchId sw, int in_port, net::PacketPtr pkt) override;
  /// Telemetry frames addressed to the controller's hub IP.
  void Receive(net::PacketPtr pkt, int port) override;
  /// Alert channel from µmbox hosts (wire via UmboxHost::SetAlertSink).
  void OnUmboxAlert(UmboxId umbox, const dataplane::Alert& alert);

  /// Manually marks a device context (used by operators and tests).
  void SetDeviceContext(const std::string& device_name,
                        const std::string& context);

  [[nodiscard]] GlobalView& view() { return view_; }
  [[nodiscard]] const GlobalView& view() const { return view_; }
  [[nodiscard]] const AuditLog& audit() const { return audit_; }

  [[nodiscard]] const net::MacAddress& hub_mac() const { return hub_mac_; }
  [[nodiscard]] net::Ipv4Address hub_ip() const { return hub_ip_; }
  void SetHubAddress(net::MacAddress mac, net::Ipv4Address ip) {
    hub_mac_ = mac;
    hub_ip_ = ip;
  }

  /// The µmbox currently enforcing a device's posture (if any).
  [[nodiscard]] std::optional<UmboxId> UmboxOf(DeviceId device) const;
  [[nodiscard]] std::string PostureProfileOf(DeviceId device) const;
  /// True while the device's guard is down and recovery is in flight.
  [[nodiscard]] bool Recovering(DeviceId device) const;

  /// Degrades the control channel (fault injection): each heartbeat/alert
  /// delivery is dropped with `drop_rate` and delayed by `extra_delay`
  /// on top of the control latency. Pass (0, 0) to heal.
  void SetControlChannelFault(double drop_rate, SimDuration extra_delay);

  /// Wires the deployment's admission controller. When set (and
  /// enforcing), new µmbox launches can be shed — the device is
  /// quarantined and retried via OnAdmissionRelaxed() — and recovery
  /// restarts can be deferred while the cluster is saturated.
  void SetAdmission(AdmissionController* admission) {
    admission_ = admission;
  }
  /// Called when the brownout level drops: re-evaluates devices whose
  /// launches were shed so enforcement is restored.
  void OnAdmissionRelaxed();
  /// Devices with recovery in flight (admission's restart-storm signal).
  [[nodiscard]] int RecoveringCount() const;

  [[nodiscard]] const HealthMonitor& health() const { return health_; }

  // ---- Federation tier API (see control/federation.h). When a
  // federation is attached, view-change events route to segment-local
  // reevaluations and flow ops route through the rule-push batcher; with
  // no federation (the default) every path below is byte-identical to
  // the flat controller.
  void SetFederation(FederatedControlPlane* federation) {
    federation_ = federation;
  }
  /// Segment-scoped policy evaluation: exactly the given devices are
  /// rechecked against the current view; posture machinery (ApplyPosture,
  /// diversion/quarantine installs, recovery) is shared with the flat
  /// path. Flat Reevaluate() == ReevaluateDevices(every device).
  void ReevaluateDevices(const std::vector<DeviceId>& devices);
  /// Registered (id, name) pairs, ascending id — the federation's
  /// segment-assignment input.
  [[nodiscard]] std::vector<std::pair<DeviceId, std::string>> DeviceNames()
      const;
  [[nodiscard]] const policy::FsmPolicy& ActivePolicy() const {
    return policy_;
  }

  struct Stats {
    std::uint64_t telemetry_events = 0;
    std::uint64_t env_events = 0;
    std::uint64_t alerts = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t policy_evals = 0;
    std::uint64_t umbox_launches = 0;
    std::uint64_t umbox_reconfigs = 0;
    std::uint64_t flow_ops = 0;
    std::uint64_t posture_changes = 0;
    std::uint64_t reevals_coalesced = 0;  // wakeups absorbed by the guard
    std::uint64_t enforcement_failures = 0;  // fail-closed isolations
    std::uint64_t crowd_rules_applied = 0;
    // ---- self-healing observability
    std::uint64_t heartbeats = 0;          // heartbeats delivered
    std::uint64_t control_drops = 0;       // control-channel fault losses
    std::uint64_t detected_failures = 0;   // per-µmbox failures detected
    std::uint64_t host_failures = 0;       // host-level outages detected
    std::uint64_t recovery_restarts = 0;   // in-place restarts completed
    std::uint64_t recovery_failovers = 0;  // re-placements completed
    std::uint64_t recovery_give_ups = 0;   // abandoned after max attempts
    // MTTR = detection -> forwarding restored, accumulated per recovery.
    SimDuration mttr_total = 0;
    SimDuration mttr_max = 0;
    std::uint64_t mttr_samples = 0;

    [[nodiscard]] double MeanMttrMs() const {
      return mttr_samples == 0
                 ? 0.0
                 : static_cast<double>(mttr_total) /
                       static_cast<double>(mttr_samples) / 1e6;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct ManagedDevice {
    devices::Device* device = nullptr;
    sdn::Switch* sw = nullptr;
    int port = -1;
    policy::Posture posture;  // currently enforced
    std::optional<UmboxId> umbox;
    int alert_count = 0;
    /// Last launch attempt was refused by admission control; cleared (and
    /// the device re-evaluated) when the brownout level drops.
    bool launch_shed = false;
    // ---- recovery state machine
    bool recovering = false;
    int recovery_attempts = 0;
    SimTime failure_detected_at = 0;
    /// Bumped whenever recovery is (re)started or cancelled; in-flight
    /// backoff/boot callbacks carry the epoch they were scheduled under
    /// and no-op on mismatch.
    std::uint64_t recovery_epoch = 0;
  };
  struct ManagedSwitch {
    sdn::Switch* sw = nullptr;
    int cluster_port = -1;  // default tunnel port (first host's uplink)
    /// Tunnel port per cluster host, so diversions follow a µmbox to
    /// whichever host it lands on (failover re-placement included).
    std::map<ServerId, int> host_ports;
  };

  void ScheduleReevaluate();
  void Reevaluate();
  /// Routes a view mutation to the federation (segment-local scheduling)
  /// or, flat, to ScheduleReevaluate(). `device` owns the changed key;
  /// kInvalidDevice marks global keys (environment levels).
  void NotifyViewEvent(DeviceId device, const std::string& dim_key);
  /// Flow-op emission: direct table writes when flat, buffered through
  /// the federation's RulePushBatcher otherwise. Urgent ops (quarantine
  /// drops — fail-closed must not wait for a batch) force a flush.
  void EmitInstall(sdn::Switch* sw, const sdn::FlowEntry& entry,
                   bool urgent);
  void EmitRemoveByCookie(sdn::Switch* sw, std::uint64_t cookie,
                          bool urgent);
  void ApplyPosture(ManagedDevice& md, const policy::Posture& posture);
  /// Adds the crowd rules for the device's SKU in front of its chain.
  [[nodiscard]] std::string EffectiveConfig(const ManagedDevice& md,
                                            const std::string& config) const;
  void OnCrowdSignature(const std::string& sku);
  /// Rollout applier: epoch-swaps a verified compile into the device's
  /// running "crowd" SignatureMatcher (full reconfigure when the chain
  /// has none yet; null compile = rolled back to no crowd rules).
  void ApplyRolloutCompile(
      DeviceId device,
      const std::shared_ptr<const sig::CompiledRuleset>& compiled);
  void InstallDiversion(ManagedDevice& md, UmboxId umbox);
  void RemoveDiversion(ManagedDevice& md);
  /// Fail-closed fallback: isolates the device at the switch.
  void InstallIsolation(ManagedDevice& md);
  /// The drop rules alone (no enforcement-failure accounting) — used
  /// both by InstallIsolation and by recovery quarantine.
  void InstallQuarantine(ManagedDevice& md);
  void EscalateContext(const std::string& device_name, ManagedDevice& md);

  // ---- self-healing internals
  /// Control-channel delivery: applies latency plus any injected
  /// drop/delay fault to a controller-bound message.
  void DeliverControl(std::function<void()> fn);
  void OnHostHeartbeat(ServerId host, std::vector<UmboxId> running);
  void CheckHealth();
  void HandleUmboxFailure(UmboxId umbox, const char* cause);
  void HandleHostFailure(const HealthMonitor::HostFailure& failure);
  void ScheduleRecoveryAttempt(ManagedDevice& md);
  void AttemptRecovery(DeviceId device, std::uint64_t epoch);
  /// Retries if a replacement instance dies mid-boot (no on_ready, no
  /// heartbeat tracking yet — without this the recovery would stall).
  void ArmRecoveryWatchdog(DeviceId device, std::uint64_t epoch,
                           int attempt);
  void FinishRecovery(DeviceId device, std::uint64_t epoch, UmboxId umbox,
                      ServerId host, bool failover);
  /// Cancels any in-flight recovery and forgets the device's instance
  /// (posture changed out from under the recovery).
  void AbandonUmbox(ManagedDevice& md);

  [[nodiscard]] ManagedDevice* FindByIp(net::Ipv4Address ip);
  [[nodiscard]] ManagedDevice* FindByUmbox(UmboxId umbox);

  sim::Simulator& sim_;
  ControllerConfig config_;
  GlobalView view_;
  dataplane::Cluster* cluster_ = nullptr;
  std::vector<ManagedSwitch> switches_;
  std::map<DeviceId, ManagedDevice> devices_;
  policy::StateSpace space_;
  policy::FsmPolicy policy_;
  bool started_ = false;
  bool reeval_pending_ = false;
  UmboxId next_umbox_id_ = 1;
  std::uint64_t flow_version_ = 1;
  net::MacAddress hub_mac_ = net::MacAddress::FromId(0xC0117701);
  net::Ipv4Address hub_ip_ = net::Ipv4Address(10, 0, 0, 1);
  AuditLog audit_;
  HealthMonitor health_;
  Rng recovery_rng_;
  double control_drop_rate_ = 0.0;
  SimDuration control_extra_delay_ = 0;
  Rng control_fault_rng_;
  AdmissionController* admission_ = nullptr;
  FederatedControlPlane* federation_ = nullptr;
  learn::CrowdRepo* crowd_repo_ = nullptr;
  rollout::RolloutCoordinator* rollout_ = nullptr;
  /// Accepted crowd rule texts per SKU, ready to splice into chains.
  std::map<std::string, std::vector<std::string>> crowd_rules_;
  Stats stats_;
};

}  // namespace iotsec::control
