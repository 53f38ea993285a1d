#include "core/deployment.h"

#include <algorithm>
#include <cassert>

namespace iotsec::core {
namespace {

/// Environment tick (dynamics integration step).
constexpr SimDuration kEnvTick = 500 * kMillisecond;

}  // namespace

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      shard_set_([this] {
        options_.shards = std::max(options_.shards, 1);
        // One packet pool per shard, bound to the shard's thread so the
        // free list is never touched concurrently.
        for (int s = 0; s < options_.shards; ++s) {
          shard_pools_.push_back(std::make_unique<net::PacketPool>());
        }
        sim::ShardSet::Options so;
        so.shards = options_.shards;
        // Conservative lookahead: every cross-shard hop is a device
        // uplink, so its propagation delay bounds the quantum.
        so.quantum = options_.link.latency;
        so.use_threads = options_.shard_threads;
        so.enter_shard = [this](int s) {
          net::PacketPool::BindToThisThread(
              shard_pools_[static_cast<std::size_t>(s)].get());
        };
        return std::make_unique<sim::ShardSet>(std::move(so));
      }()),
      sim_(shard_set_->sim(0)),
      shard_env_writes_(static_cast<std::size_t>(options_.shards)) {
  env_ = env::MakeSmartHomeEnvironment();
  env_->AttachTo(sim_, kEnvTick);

  switch_ = std::make_unique<sdn::Switch>(
      /*id=*/1, sim_,
      options_.with_iotsec ? sdn::Switch::MissBehavior::kToController
                           : sdn::Switch::MissBehavior::kFlood);

  controller_ =
      std::make_unique<control::IoTSecController>(sim_, options_.controller);

  // Controller uplink (telemetry + PacketIn path share the hub port).
  net::Link* ctrl_link = NewLink();
  const int ctrl_port = switch_->AttachLink(ctrl_link, 0);
  ctrl_link->Attach(1, controller_.get(), 0);
  switch_->SetMacPort(controller_->hub_mac(), ctrl_port);

  // µmbox cluster: one uplink per host; every host reachable from the
  // switch through its cluster port (first host's port doubles as the
  // switch's tunnel port — single-host deployments are the common case).
  int first_cluster_port = -1;
  std::vector<std::pair<ServerId, int>> host_ports;
  for (int h = 0; h < options_.cluster_hosts; ++h) {
    auto host = std::make_unique<dataplane::UmboxHost>(
        static_cast<ServerId>(h + 1), sim_, options_.host_capacity);
    net::Link* link = NewLink(
        options_.cluster_link ? &*options_.cluster_link : nullptr);
    const int port = switch_->AttachLink(link, 0);
    host->ConnectUplink(link, 1);
    if (first_cluster_port < 0) first_cluster_port = port;
    host_ports.emplace_back(host->id(), port);
    cluster_.AddHost(host.get());
    hosts_.push_back(std::move(host));
  }

  if (options_.with_iotsec) {
    controller_->ManageSwitch(switch_.get(), first_cluster_port);
    for (const auto& [host_id, port] : host_ports) {
      controller_->MapHostPort(switch_.get(), host_id, port);
    }
    controller_->SetCluster(&cluster_);
    controller_->BindEnvironment(env_.get());
  }

  // Attacker vantage point.
  const auto attacker_mac = net::MacAddress::FromId(0xa77ac);
  const auto attacker_ip = options_.wan_attacker
                               ? net::Ipv4Address(203, 0, 113, 66)
                               : net::Ipv4Address(10, 0, 0, 200);
  attacker_ = std::make_unique<devices::Attacker>(attacker_mac, attacker_ip,
                                                  sim_);
  if (options_.wan_attacker) {
    gateway_ = std::make_unique<baseline::PerimeterGateway>(sim_);
    net::Link* wan_link = NewLink();
    net::Link* lan_link = NewLink();
    attacker_->ConnectUplink(wan_link, 0);
    gateway_->ConnectWan(wan_link, 1);
    gateway_->ConnectLan(lan_link, 0);
    const int gw_port = switch_->AttachLink(lan_link, 1);
    switch_->SetMacPort(attacker_mac, gw_port);
    if (options_.with_iotsec) {
      controller_->RegisterEndpoint(attacker_mac, switch_.get(), gw_port);
    }
  } else {
    net::Link* link = NewLink();
    attacker_->ConnectUplink(link, 0);
    const int port = switch_->AttachLink(link, 1);
    switch_->SetMacPort(attacker_mac, port);
    if (options_.with_iotsec) {
      controller_->RegisterEndpoint(attacker_mac, switch_.get(), port);
    }
  }

  if (options_.with_iotsec &&
      options_.admission.mode != control::AdmissionMode::kOff) {
    admission_ =
        std::make_unique<control::AdmissionController>(options_.admission);
    controller_->SetAdmission(admission_.get());
    // Dropping a level means pressure receded: give shed launches their
    // retry immediately instead of waiting for the next posture change.
    admission_->SetLevelChangeCallback(
        [this](control::BrownoutLevel from, control::BrownoutLevel to) {
          if (to < from) controller_->OnAdmissionRelaxed();
        });
    // Ingress backpressure: shed only *new client work* at the edge.
    // Exempt (a) tunnel frames — µmbox verdicts and diversions already
    // paid for, (b) control-plane traffic to/from the hub, (c) frames
    // sourced by managed devices — in-flight replies and telemetry whose
    // request cost is sunk. What remains is fresh client/attacker load.
    switch_->SetIngressGate(
        [this](const net::Packet& pkt, const proto::ParsedFrame& frame,
               int /*port*/) {
          (void)pkt;
          if (frame.eth.ethertype == proto::EtherType::kTunnel) return true;
          if (frame.ip.has_value()) {
            const auto hub = controller_->hub_ip();
            if (frame.ip->src == hub || frame.ip->dst == hub) return true;
            if (registry_.ByIp(frame.ip->src) != nullptr) return true;
          }
          return admission_->AdmitIngress(sim_.Now());
        });
  }

  // Ruleset OTA pipeline: the store and coordinator live on shard 0's
  // simulator (the control-plane clock), like the controller they feed.
  // Devices registered later forward into the coordinator automatically.
  if (options_.with_iotsec && options_.rollout.enabled) {
    version_store_ = std::make_unique<rollout::VersionStore>();
    rollout_ = std::make_unique<rollout::RolloutCoordinator>(
        sim_, version_store_.get(), options_.rollout);
    if (admission_ != nullptr) rollout_->SetAdmission(admission_.get());
    controller_->SetRollout(rollout_.get());
  }
}

Deployment::~Deployment() {
  // The ShardSet constructor bound the caller thread to shard 0's pool;
  // that pool dies with this deployment, so restore the global binding.
  net::PacketPool::BindToThisThread(nullptr);
}

net::Link* Deployment::NewLink(const net::LinkConfig* config) {
  links_.push_back(std::make_unique<net::Link>(
      sim_, config != nullptr ? *config : options_.link));
  net::Link* link = links_.back().get();
  if (chaos_ != nullptr) chaos_->AddLink(link);
  return link;
}

env::Environment* Deployment::EnvFor(DeviceId id) {
  auto it = env_replicas_.find(id);
  if (it == env_replicas_.end()) {
    auto replica = env_->Replicate();
    auto* writes = &shard_env_writes_[static_cast<std::size_t>(
        sdn::ShardOfDevice(id, options_.shards))];
    replica->SetWriteCapture(
        [writes](const std::string& name, double value, SimTime now) {
          writes->push_back(EnvWrite{now, name, value});
        });
    it = env_replicas_.emplace(id, std::move(replica)).first;
  }
  return it->second.get();
}

void Deployment::BarrierSync(SimTime now) {
  // 1. Apply the quantum's captured device writes to the owner in one
  //    canonical order — (time, variable, value) is a function of the
  //    simulation, not of shard placement or thread timing.
  for (std::vector<EnvWrite>& writes : shard_env_writes_) {
    for (EnvWrite& w : writes) pending_env_writes_.push_back(std::move(w));
    writes.clear();
  }
  if (!pending_env_writes_.empty()) {
    std::sort(pending_env_writes_.begin(), pending_env_writes_.end(),
              [](const EnvWrite& a, const EnvWrite& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.name != b.name) return a.name < b.name;
                return a.value < b.value;
              });
    for (const EnvWrite& w : pending_env_writes_) {
      env_->SetValue(w.name, w.value, w.at);
    }
    pending_env_writes_.clear();
  }
  // 2. Fan the owner's state back out.
  FanOutEnvironment(now);
  // 3. Feed the admission controller. Barrier times are quantum
  //    multiples — identical for every shard count — so sampling here
  //    keeps the decision trace placement-invariant.
  if (admission_ != nullptr && now >= next_admission_sample_) {
    SampleAdmission(now);
    next_admission_sample_ = now + control::kAdmissionSamplePeriod;
  }
}

void Deployment::FanOutEnvironment(SimTime now) {
  if (env_->version() == synced_env_version_) return;
  synced_env_version_ = env_->version();
  // Device-id order ⇒ deterministic replica-listener firing order.
  for (auto& [id, replica] : env_replicas_) replica->SyncFrom(*env_, now);
}

control::AdmissionSignals Deployment::CollectAdmissionSignals() const {
  control::AdmissionSignals sig;
  for (const auto& host : hosts_) {
    host->AccumulateBootQueue(sig.boot_queue_depth,
                              sig.boot_queue_worst_permille);
  }
  std::int64_t live = 0;
  for (const auto& pool : shard_pools_) live += pool->Live();
  sig.pool_live = static_cast<std::size_t>(std::max<std::int64_t>(0, live));
  sig.cluster_load = cluster_.TotalLoad();
  sig.cluster_capacity = cluster_.TotalCapacity();
  sig.recovering = controller_->RecoveringCount();
  return sig;
}

void Deployment::SampleAdmission(SimTime now) {
  admission_->Update(CollectAdmissionSignals(), now);
}

void Deployment::RunFor(SimDuration d) {
  // Owner writes made since the last barrier (by the caller, between
  // runs) reach the replicas now, not at the first non-idle barrier.
  FanOutEnvironment(Now());
  shard_set_->RunFor(d, [this](SimTime now) { BarrierSync(now); });
}

fault::FaultInjector& Deployment::chaos() {
  if (chaos_ == nullptr) {
    chaos_ = std::make_unique<fault::FaultInjector>(sim_, options_.chaos_seed);
    chaos_->AttachCluster(&cluster_);
    if (options_.with_iotsec) chaos_->AttachController(controller_.get());
    for (const auto& link : links_) chaos_->AddLink(link.get());
  }
  return *chaos_;
}

Deployment::NetworkTotals Deployment::AggregateLinkStats() const {
  assert(!shard_set_->running());
  NetworkTotals totals;
  for (const auto& link : links_) {
    for (int dir = 0; dir < 2; ++dir) {
      const net::LinkStats& s = link->stats(dir);
      totals.packets += s.packets;
      totals.bytes += s.bytes;
      totals.queue_drops += s.drops;
      totals.lost += s.lost;
    }
  }
  return totals;
}

devices::DeviceSpec Deployment::MakeSpec(
    const std::string& name, devices::DeviceClass cls,
    std::set<devices::Vulnerability> vulns, std::string credential) {
  devices::DeviceSpec spec;
  spec.id = next_device_id_++;
  spec.name = name;
  spec.cls = cls;
  spec.vendor = "Generic";
  spec.sku = "Generic-" + std::string(devices::DeviceClassName(cls));
  spec.mac = net::MacAddress::FromId(spec.id);
  spec.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(
                                           next_host_octet_++));
  spec.vulns = std::move(vulns);
  spec.credential = std::move(credential);
  spec.hub_ip = controller_->hub_ip();
  spec.hub_mac = controller_->hub_mac();
  return spec;
}

devices::Device* Deployment::Attach(std::unique_ptr<devices::Device> device) {
  devices::Device* ptr = registry_.Add(std::move(device));
  net::Link* link = NewLink();
  ptr->ConnectUplink(link, 0);
  const int port = switch_->AttachLink(link, 1);
  // Device end (0) lives on the device's home shard, switch end (1) on
  // shard 0. Bound regardless of where the hash lands the device — the
  // bound path's behaviour is placement-independent, which is what makes
  // a 1-shard run the reference for an N-shard run.
  link->BindShards(shard_set_.get(),
                   sdn::ShardOfDevice(ptr->id(), options_.shards),
                   /*end1_shard=*/0);
  switch_->SetMacPort(ptr->spec().mac, port);
  controller_->RegisterDevice(ptr, switch_.get(), port);
  return ptr;
}

devices::Camera* Deployment::AddCamera(const std::string& name,
                                       std::set<devices::Vulnerability> vulns,
                                       std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kCamera, std::move(vulns),
                       std::move(credential));
  spec.vendor = "Avtech";
  spec.sku = "Avtech-AVN801";
  spec.ram_kb = 8 * 1024;
  const DeviceId id = spec.id;
  return static_cast<devices::Camera*>(Attach(std::make_unique<devices::Camera>(
      std::move(spec), SimFor(id), EnvFor(id))));
}

devices::SmartPlug* Deployment::AddSmartPlug(
    const std::string& name, std::string attached_env_var,
    std::set<devices::Vulnerability> vulns, std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartPlug,
                       std::move(vulns), std::move(credential));
  spec.vendor = "Belkin";
  spec.sku = "Wemo-Insight";
  spec.ram_kb = 2 * 1024;
  const DeviceId id = spec.id;
  return static_cast<devices::SmartPlug*>(
      Attach(std::make_unique<devices::SmartPlug>(
          std::move(spec), SimFor(id), EnvFor(id),
          std::move(attached_env_var))));
}

devices::FireAlarm* Deployment::AddFireAlarm(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kFireAlarm);
  spec.vendor = "Nest";
  spec.sku = "Nest-Protect";
  spec.ram_kb = 1024;
  const DeviceId id = spec.id;
  return static_cast<devices::FireAlarm*>(Attach(
      std::make_unique<devices::FireAlarm>(std::move(spec), SimFor(id),
                                           EnvFor(id))));
}

devices::WindowActuator* Deployment::AddWindow(const std::string& name,
                                               std::string credential) {
  auto spec = MakeSpec(name, devices::DeviceClass::kWindowActuator, {},
                       std::move(credential));
  spec.ram_kb = 512;
  const DeviceId id = spec.id;
  return static_cast<devices::WindowActuator*>(
      Attach(std::make_unique<devices::WindowActuator>(
          std::move(spec), SimFor(id), EnvFor(id))));
}

devices::LightBulb* Deployment::AddLightBulb(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kLightBulb);
  spec.vendor = "Philips";
  spec.sku = "Hue-A19";
  spec.ram_kb = 256;
  const DeviceId id = spec.id;
  return static_cast<devices::LightBulb*>(Attach(
      std::make_unique<devices::LightBulb>(std::move(spec), SimFor(id),
                                           EnvFor(id))));
}

devices::LightSensor* Deployment::AddLightSensor(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kLightSensor);
  spec.ram_kb = 128;
  const DeviceId id = spec.id;
  return static_cast<devices::LightSensor*>(Attach(
      std::make_unique<devices::LightSensor>(std::move(spec), SimFor(id),
                                             EnvFor(id))));
}

devices::Thermostat* Deployment::AddThermostat(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kThermostat);
  spec.vendor = "Nest";
  spec.sku = "Nest-T3";
  spec.ram_kb = 4 * 1024;
  const DeviceId id = spec.id;
  return static_cast<devices::Thermostat*>(Attach(
      std::make_unique<devices::Thermostat>(std::move(spec), SimFor(id),
                                            EnvFor(id))));
}

devices::MotionSensor* Deployment::AddMotionSensor(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kMotionSensor);
  spec.ram_kb = 128;
  const DeviceId id = spec.id;
  return static_cast<devices::MotionSensor*>(Attach(
      std::make_unique<devices::MotionSensor>(std::move(spec), SimFor(id),
                                              EnvFor(id))));
}

devices::SmartLock* Deployment::AddSmartLock(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartLock);
  spec.ram_kb = 512;
  const DeviceId id = spec.id;
  return static_cast<devices::SmartLock*>(Attach(
      std::make_unique<devices::SmartLock>(std::move(spec), SimFor(id),
                                           EnvFor(id))));
}

devices::SmartOven* Deployment::AddSmartOven(const std::string& name) {
  auto spec = MakeSpec(name, devices::DeviceClass::kSmartOven);
  spec.ram_kb = 2 * 1024;
  const DeviceId id = spec.id;
  return static_cast<devices::SmartOven*>(Attach(
      std::make_unique<devices::SmartOven>(std::move(spec), SimFor(id),
                                           EnvFor(id))));
}

policy::StateSpace Deployment::BuildStateSpace() const {
  policy::StateSpace space;
  for (const devices::Device* device : registry_.All()) {
    const auto& name = device->spec().name;
    space.AddDimension({policy::StateSpace::ContextDim(name),
                        policy::DimensionKind::kDeviceContext,
                        device->id(),
                        policy::DefaultSecurityContexts()});
    const auto* model = library_.For(device->spec().cls);
    std::vector<std::string> states =
        model != nullptr && !model->states.empty()
            ? model->states
            : std::vector<std::string>{device->State()};
    space.AddDimension({policy::StateSpace::StateDim(name),
                        policy::DimensionKind::kDeviceState,
                        device->id(), std::move(states)});
  }
  for (const auto& var : env_->VariableNames()) {
    space.AddDimension({policy::StateSpace::EnvDim(var),
                        policy::DimensionKind::kEnvVar, kInvalidDevice,
                        env_->LevelNames(var)});
  }
  return space;
}

void Deployment::UsePolicy(policy::StateSpace space,
                           policy::FsmPolicy policy) {
  controller_->SetPolicy(std::move(space), std::move(policy));
}

void Deployment::Start() {
  if (started_) return;
  started_ = true;
  // Federation builds at Start: segment assignment needs the final
  // device set and the active policy, and its tickers (delta sync, push
  // flush) live on shard 0 — the placement-invariant clock.
  if (options_.with_iotsec && options_.federation.enabled) {
    federation_ = std::make_unique<control::FederatedControlPlane>(
        sim_, *controller_, options_.federation);
    controller_->SetFederation(federation_.get());
    federation_->Build();
    federation_->Start();
  }
  registry_.StartAll();
  if (options_.with_iotsec) controller_->Start();
  // Admission samples at barriers (BarrierSync). Idle quanta are
  // skipped, so this no-op ticker puts a barrier on every sample instant.
  if (admission_ != nullptr) {
    sim_.Every(control::kAdmissionSamplePeriod, [] {});
  }
}

}  // namespace iotsec::core
