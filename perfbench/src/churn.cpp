#include "churn.h"

#include <cstdio>

#include "core/postures.h"
#include "obs/obs.h"
#include "policy/fsm_policy.h"

namespace perfbench {

namespace net = iotsec::net;
using iotsec::SimTime;

namespace {

const net::MacAddress kCloudMac = net::MacAddress::FromId(0xC10D01);
const net::Ipv4Address kCloudIp(52, 0, 0, 1);
// µmboxes boot as micro-VMs (30 ms) under the default controller config.
constexpr SimDuration kBoot = 100 * iotsec::kMillisecond;
// Far above any keepalive's path latency, far below its period.
constexpr SimDuration kMaxPathLatency = 2 * iotsec::kMillisecond;

const char* ProfileFor(bool suspicious) {
  return suspicious ? "firewall" : "monitor";
}

}  // namespace

/// The vendor cloud: counts each device's keepalives and times delivery.
class Churn::CloudSink final : public net::PacketSink {
 public:
  explicit CloudSink(Churn& churn) : churn_(churn) {}
  void Receive(net::PacketPtr pkt, int /*port*/) override {
    const std::uint64_t t0 = HostNs();
    ShardAccum& acc = churn_.acc_;
    const auto* frame = pkt->Parsed();
    const auto it = frame != nullptr && frame->ip
                        ? churn_.index_of_ip_.find(frame->ip->src.value())
                        : churn_.index_of_ip_.end();
    if (it == churn_.index_of_ip_.end()) {
      ++acc.bad_delivery;
    } else {
      ++acc.delivered;
      ++acc.completed;
      ++churn_.keepalives_[static_cast<std::size_t>(it->second)];
    }
    if (churn_.tracing_) acc.Add(kNet, HostNs() - t0);
  }

 private:
  Churn& churn_;
};

Churn::Churn(ChurnConfig config)
    : config_(config),
      flip_gen_(config.seed, config.devices, config.min_gap, config.max_gap) {
  iotsec::core::DeploymentOptions opts;
  // Default options, except enough default-capacity hosts for one µmbox
  // per device.
  opts.cluster_hosts = (config_.devices + opts.host_capacity - 1) /
                       opts.host_capacity;
  dep_ = std::make_unique<iotsec::core::Deployment>(opts);

  for (int i = 0; i < config_.devices; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "d%d", i);
    names_.emplace_back(name);
    auto* dev = dep_->AddLightBulb(names_.back());
    ids_.push_back(dev->id());
    index_of_ip_[dev->spec().ip.value()] = i;
  }
  suspicious_.assign(static_cast<std::size_t>(config_.devices), false);
  keepalives_.assign(static_cast<std::size_t>(config_.devices), 0);

  space_ = dep_->BuildStateSpace();
  iotsec::policy::FsmPolicy policy;
  policy.SetDefault(iotsec::core::MonitorPosture());
  const auto firewall = iotsec::core::FirewallPosture(dep_->lan_prefix());
  for (int i = 0; i < config_.devices; ++i) {
    const std::string dim =
        iotsec::policy::StateSpace::ContextDim(names_[static_cast<std::size_t>(i)]);
    iotsec::policy::PolicyRule normal;
    normal.name = names_[static_cast<std::size_t>(i)] + "-normal";
    normal.when = iotsec::policy::StatePredicate::Eq(dim, "normal");
    normal.device = ids_[static_cast<std::size_t>(i)];
    normal.posture = iotsec::core::MonitorPosture();
    normal.priority = 10;
    policy.Add(normal);
    iotsec::policy::PolicyRule suspicious = normal;
    suspicious.name = names_[static_cast<std::size_t>(i)] + "-suspicious";
    suspicious.when = iotsec::policy::StatePredicate::Eq(dim, "suspicious");
    suspicious.posture = firewall;
    policy.Add(suspicious);
  }
  dep_->UsePolicy(space_, std::move(policy));

  // The cloud hangs off the edge switch on a port of the benchmark's own.
  cloud_ = std::make_unique<CloudSink>(*this);
  cloud_link_ = std::make_unique<net::Link>(dep_->sim());
  const int port = dep_->edge().AttachLink(cloud_link_.get(), 0);
  cloud_link_->Attach(1, cloud_.get(), 0);
  dep_->edge().SetMacPort(kCloudMac, port);

  dep_->Start();
  dep_->RunFor(kBoot);
  // Keepalive phases are spread over one period by the seed.
  keepalive_start_.resize(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    keepalive_start_[i] =
        dep_->Now() + Mix64(config_.seed, i) % config_.keepalive;
    dep_->sim().At(keepalive_start_[i], [this, i] {
      dep_->registry().ById(ids_[i])->StartCloudKeepalive(kCloudIp, kCloudMac,
                                                         config_.keepalive);
    });
  }
  next_ = flip_gen_.Next();
  dep_->sim().At(dep_->Now() + next_.gap, [this] { OnFlip(); });
}

Churn::~Churn() = default;

void Churn::RunFor(SimDuration d) { dep_->RunFor(d); }

void Churn::SetTracing(bool on) {
  tracing_ = on;
  iotsec::obs::SetSampling(on);
}

void Churn::OnFlip() {
  auto& sim = dep_->sim();
  const SimTime now = sim.Now();
  if (now >= stop_at_) return;
  const int d = next_.device;
  const auto di = static_cast<std::size_t>(d);
  suspicious_[di] = !suspicious_[di];
  const SimDuration latency = dep_->options().controller.control_latency;
  if (tracing_) {
    // Queued before the reevaluation SetDeviceContext schedules at the
    // same instant, so it fires just before it.
    sim.At(now + latency, [this] { reeval_started_ns_ = HostNs(); });
  }
  // Reaction time runs on this thread's CPU clock (see ThreadCpuNs);
  // the span around the call itself is wall time, like every span.
  const std::uint64_t called = ThreadCpuNs();
  const std::uint64_t call_start = HostNs();
  dep_->controller().SetDeviceContext(names_[di],
                                      suspicious_[di] ? "suspicious" : "normal");
  if (tracing_) {
    const std::uint64_t dt = HostNs() - call_start;
    acc_.Add(kControl, dt);
    set_context_ns_.push_back(dt);
  }
  ++flips_;
  sim.At(now + latency, [this, d, called] { AfterReevaluation(d, called); });

  next_ = flip_gen_.Next();
  sim.At(now + next_.gap, [this] { OnFlip(); });
}

void Churn::AfterReevaluation(int device, std::uint64_t called_cpu_ns) {
  const std::uint64_t cpu_now = ThreadCpuNs();
  const std::uint64_t now = HostNs();
  const auto di = static_cast<std::size_t>(device);
  const std::string want = ProfileFor(suspicious_[di]);
  if (dep_->controller().PostureProfileOf(ids_[di]) == want) {
    ++applied_;
    acc_.latency_ns.push_back(cpu_now - called_cpu_ns);
  } else {
    ++flips_failed_;
  }
  if (!tracing_) return;
  if (reeval_started_ns_ != 0) acc_.Add(kControl, now - reeval_started_ns_);
  reeval_started_ns_ = 0;
  // The policy layer on its own: one evaluation of every device against
  // the live state, as the reevaluation just did. It is the benchmark's
  // extra work, so it is kept out of the wall time shares divide.
  const std::uint64_t t0 = HostNs();
  const auto& controller = dep_->controller();
  const auto postures = controller.ActivePolicy().EvaluateAll(
      space_, controller.view().ToSystemState(space_), ids_);
  const std::uint64_t dt = HostNs() - t0;
  evaluate_all_ns_.push_back(dt);
  acc_.probe_ns += dt;
  const auto it = postures.find(ids_[di]);
  if (it == postures.end() || it->second.profile != want) ++policy_mismatches_;
}

Churn::Keepalives Churn::CountKeepalives() const {
  Keepalives k;
  const SimTime now = dep_->Now();
  // Ticks fire at start + j * period for j >= 1.
  auto sent_by = [&](std::size_t i, SimTime t) -> std::uint64_t {
    return t < keepalive_start_[i] ? 0
                                   : (t - keepalive_start_[i]) / config_.keepalive;
  };
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint64_t due = sent_by(i, now - kMaxPathLatency);
    k.expected += due;
    k.received += keepalives_[i];
    if (keepalives_[i] < due) ++k.missing;
    if (keepalives_[i] > sent_by(i, now)) ++k.excess;
  }
  k.unexpected = acc_.bad_delivery;
  return k;
}

}  // namespace perfbench
