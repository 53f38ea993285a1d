// The top-level public API: a complete simulated IoT deployment.
//
// A Deployment wires the whole Figure 2 architecture — edge switch,
// devices, physical environment, attacker vantage point, µmbox cluster
// and the IoTSec controller — or, with `with_iotsec=false`, the
// unmanaged "current world" the paper contrasts against (plain flooding
// L2 switch, optional perimeter firewall at the WAN edge).
//
// Quickstart:
//   core::Deployment dep;                       // IoTSec-managed home
//   auto* cam = dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
//                             "admin");
//   dep.UsePolicy(space, policy);
//   dep.Start();
//   dep.RunFor(5 * kSecond);
#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/baseline.h"
#include "control/controller.h"
#include "control/federation.h"
#include "dataplane/cluster.h"
#include "devices/attacker.h"
#include "devices/models.h"
#include "devices/registry.h"
#include "env/dynamics.h"
#include "fault/fault_injector.h"
#include "learn/model_library.h"
#include "net/packet.h"
#include "rollout/coordinator.h"
#include "sdn/shard_map.h"
#include "sdn/switch.h"
#include "sim/shard_set.h"

namespace iotsec::core {

struct DeploymentOptions {
  /// true: SDN switch + controller + µmbox cluster. false: unmanaged
  /// flooding L2 switch ("current world" baseline).
  bool with_iotsec = true;
  /// Put the attacker beyond a perimeter firewall (WAN vantage) instead
  /// of on the LAN.
  bool wan_attacker = false;
  control::ControllerConfig controller;
  /// Overload control (see control/admission.h). kOff (default) creates
  /// no admission controller at all, so it costs nothing. kMonitor (the
  /// open-loop arm of bench_overload) samples and levels without
  /// acting; kEnforce sheds launches, defers restarts and backpressures
  /// ingress. Signals are sampled at the first quantum barrier at or
  /// after every multiple of the fixed control::kAdmissionSamplePeriod.
  control::AdmissionConfig admission;
  /// Hierarchical controller federation (see control/federation.h).
  /// Disabled (default) keeps the flat controller byte-identical to every
  /// release before federation existed. Enabled: segments derived from
  /// the policy's interaction graph get local reevaluation, cross-segment
  /// state rides delta syncs, and rule pushes are batched per switch.
  control::FederationConfig federation;
  /// Signed delta-ruleset OTA pipeline (see rollout/coordinator.h).
  /// Disabled (default) keeps the CrowdRepo's flat whole-fleet fan-out
  /// byte-identical to every release before the pipeline existed.
  /// Enabled: acceptances cut signed versions in a VersionStore and a
  /// RolloutCoordinator stages them through canary cohorts with
  /// health-gated promotion and instant rollback.
  rollout::RolloutConfig rollout;
  int cluster_hosts = 1;
  int host_capacity = 64;
  net::LinkConfig link;
  /// Override for the µmbox-host uplinks (the serving path every
  /// diverted flow crosses twice). Unset: hosts use `link` like
  /// everything else. The overload bench narrows this to make the
  /// cluster — not the access links — the contended resource.
  std::optional<net::LinkConfig> cluster_link;
  /// Seed for the deployment's FaultInjector (see chaos()).
  std::uint64_t chaos_seed = 0xC4A05;
  /// Worker shards of the deployment's sim::ShardSet. Devices are homed
  /// on ShardOfDevice(id, shards) and run in lockstep quanta of one link
  /// latency; infrastructure (switch, controller, cluster, attacker,
  /// environment owner) stays on shard 0. The default single shard is the
  /// determinism reference an N-shard run must digest-match. Values below
  /// 1 mean 1.
  int shards = 1;
  /// Execute shards 1..N-1 on worker threads (true) or all inline on the
  /// caller (false — identical results, easier debugging).
  bool shard_threads = true;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // ---- Accessors.
  /// Shard 0's simulator: the infrastructure clock, for scheduling
  /// control-plane and attacker events. Advance the deployment with
  /// RunFor() only — running this simulator directly moves shard 0 alone
  /// and skips every barrier.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// Simulator owning device `id`'s events.
  [[nodiscard]] sim::Simulator& SimFor(DeviceId id) {
    return shard_set_->sim(sdn::ShardOfDevice(id, options_.shards));
  }
  [[nodiscard]] env::Environment& environment() { return *env_; }
  [[nodiscard]] devices::DeviceRegistry& registry() { return registry_; }
  [[nodiscard]] sdn::Switch& edge() { return *switch_; }
  [[nodiscard]] control::IoTSecController& controller() {
    return *controller_;
  }
  [[nodiscard]] dataplane::Cluster& cluster() { return cluster_; }
  [[nodiscard]] devices::Attacker& attacker() { return *attacker_; }
  [[nodiscard]] baseline::PerimeterGateway* gateway() {
    return gateway_.get();
  }
  /// The deployment's fault injector, created and wired (cluster,
  /// controller, every link built so far — links added later register
  /// automatically) on first use.
  [[nodiscard]] fault::FaultInjector& chaos();
  /// Non-null iff options().admission.mode != kOff (and IoTSec is on).
  [[nodiscard]] control::AdmissionController* admission() {
    return admission_.get();
  }
  /// Non-null iff options().federation.enabled (and IoTSec is on);
  /// created at Start(), once the device set and policy are final.
  [[nodiscard]] control::FederatedControlPlane* federation() {
    return federation_.get();
  }
  /// Non-null iff options().rollout.enabled (and IoTSec is on).
  [[nodiscard]] rollout::RolloutCoordinator* rollout() {
    return rollout_.get();
  }
  [[nodiscard]] rollout::VersionStore* version_store() {
    return version_store_.get();
  }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  [[nodiscard]] net::Ipv4Prefix lan_prefix() const {
    return net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24);
  }

  // ---- Building.
  /// Allocates a spec (id, MAC, IP, hub address) for a new device.
  devices::DeviceSpec MakeSpec(const std::string& name,
                               devices::DeviceClass cls,
                               std::set<devices::Vulnerability> vulns = {},
                               std::string credential = "secret-token");

  /// Attaches an already-constructed device to the edge switch and
  /// registers it with the controller.
  devices::Device* Attach(std::unique_ptr<devices::Device> device);

  // Convenience creators for the common classes.
  devices::Camera* AddCamera(const std::string& name,
                             std::set<devices::Vulnerability> vulns = {},
                             std::string credential = "secret-token");
  devices::SmartPlug* AddSmartPlug(const std::string& name,
                                   std::string attached_env_var,
                                   std::set<devices::Vulnerability> vulns = {},
                                   std::string credential = "secret-token");
  devices::FireAlarm* AddFireAlarm(const std::string& name);
  devices::WindowActuator* AddWindow(const std::string& name,
                                     std::string credential = "secret-token");
  devices::LightBulb* AddLightBulb(const std::string& name);
  devices::LightSensor* AddLightSensor(const std::string& name);
  devices::Thermostat* AddThermostat(const std::string& name);
  devices::MotionSensor* AddMotionSensor(const std::string& name);
  devices::SmartLock* AddSmartLock(const std::string& name);
  devices::SmartOven* AddSmartOven(const std::string& name);

  /// Builds the policy state space for the current device set: one
  /// "ctx:" dimension per device (security contexts), one "dev:"
  /// dimension per device (class FSM states), one "env:" dimension per
  /// environment variable.
  [[nodiscard]] policy::StateSpace BuildStateSpace() const;

  void UsePolicy(policy::StateSpace space, policy::FsmPolicy policy);

  /// Boots devices (and the controller when IoTSec is on).
  void Start();
  /// Advances every shard in lockstep quanta, syncing the environment
  /// and sampling admission at the barriers. Environment writes made
  /// between runs reach device replicas before the run starts.
  void RunFor(SimDuration d);
  [[nodiscard]] SimTime Now() const { return shard_set_->Now(); }

  /// Convenience lookups for tests/benches.
  [[nodiscard]] devices::Device* Find(const std::string& name) const {
    return registry_.ByName(name);
  }

  /// Every link's counters summed over both directions — the
  /// deployment-level view chaos runs assert against.
  struct NetworkTotals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t lost = 0;  // random / flap-induced loss
  };
  /// Call between runs: mid-quantum the link counters belong to the
  /// shards executing concurrently.
  [[nodiscard]] NetworkTotals AggregateLinkStats() const;
  [[nodiscard]] std::size_t LinkCount() const {
    assert(!shard_set_->running());
    return links_.size();
  }

 private:
  /// null config: the deployment-wide options_.link.
  net::Link* NewLink(const net::LinkConfig* config = nullptr);
  /// The environment a device reads/writes: its private replica, created
  /// here on first use.
  env::Environment* EnvFor(DeviceId id);
  /// Barrier-phase work: apply captured device environment writes to the
  /// owner in canonical order, fan the owner's state back out to every
  /// replica, feed the admission controller.
  void BarrierSync(SimTime now);
  /// Copies the owner's state into every replica if it changed since the
  /// last fan-out.
  void FanOutEnvironment(SimTime now);
  /// One shard-placement-invariant admission snapshot: boot queues and
  /// cluster load live on shard 0, and pool_live sums Live() over every
  /// pool — total in-flight packets at a barrier is a function of the
  /// simulation, not of where devices were placed (each release routes
  /// back to its acquiring pool's counter; see net::PacketPool::Live).
  [[nodiscard]] control::AdmissionSignals CollectAdmissionSignals() const;
  void SampleAdmission(SimTime now);

  DeploymentOptions options_;
  // Engine: sim_ aliases the set's shard 0. Declared before every member
  // that captures sim_ at construction.
  std::vector<std::unique_ptr<net::PacketPool>> shard_pools_;
  std::unique_ptr<sim::ShardSet> shard_set_;
  sim::Simulator& sim_;
  std::unique_ptr<env::Environment> env_;
  // Per-device environment replicas. Writes to a replica are captured
  // into its device's shard buffer, touched mid-quantum only by that
  // shard's worker; the barrier phase (single-threaded, after workers
  // park) drains every shard buffer into pending_env_writes_ for one
  // canonical sorted apply.
  struct EnvWrite {
    SimTime at = 0;
    std::string name;
    double value = 0.0;
  };
  std::map<DeviceId, std::unique_ptr<env::Environment>> env_replicas_;
  std::vector<std::vector<EnvWrite>> shard_env_writes_;  // [shard]
  std::vector<EnvWrite> pending_env_writes_;
  std::uint64_t synced_env_version_ = 0;
  devices::DeviceRegistry registry_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unique_ptr<sdn::Switch> switch_;
  std::unique_ptr<control::IoTSecController> controller_;
  std::unique_ptr<control::AdmissionController> admission_;
  std::unique_ptr<control::FederatedControlPlane> federation_;
  std::unique_ptr<rollout::VersionStore> version_store_;
  std::unique_ptr<rollout::RolloutCoordinator> rollout_;
  SimTime next_admission_sample_ = 0;
  std::vector<std::unique_ptr<dataplane::UmboxHost>> hosts_;
  dataplane::Cluster cluster_;
  std::unique_ptr<devices::Attacker> attacker_;
  std::unique_ptr<baseline::PerimeterGateway> gateway_;
  std::unique_ptr<fault::FaultInjector> chaos_;
  learn::ModelLibrary library_ = learn::ModelLibrary::Builtin();
  DeviceId next_device_id_ = 10;
  std::uint32_t next_host_octet_ = 10;
  bool started_ = false;
};

}  // namespace iotsec::core
