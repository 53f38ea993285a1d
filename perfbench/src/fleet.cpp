#include "fleet.h"

#include <pthread.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "dataplane/elements.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/transport.h"
#include "proto/tunnel.h"
#include "sdn/flow_key.h"
#include "sdn/flow_table.h"

namespace perfbench {

namespace net = iotsec::net;
namespace sdn = iotsec::sdn;
namespace dataplane = iotsec::dataplane;
using iotsec::SimTime;

namespace {

// µmboxes boot as processes (2 ms); sends begin once all are running.
constexpr SimDuration kStart = 5 * iotsec::kMillisecond;
// Queues never overflow: which packet a full queue sheds depends on
// same-timestamp arrival order, which differs between shard counts.
constexpr std::size_t kQueueLimit = std::size_t{1} << 20;
// Every this-many delivered frames a traced sink times encap/decap.
constexpr std::uint64_t kProbeEvery = 64;
// About one send in this many is a latency sample.
constexpr std::uint64_t kLatencySampleEvery = 8;

net::Ipv4Address IpOf(DeviceId id) {
  const auto v = static_cast<std::uint32_t>(id);
  return net::Ipv4Address(10, static_cast<std::uint8_t>((v >> 16) & 0xff),
                          static_cast<std::uint8_t>((v >> 8) & 0xff),
                          static_cast<std::uint8_t>(v & 0xff));
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

struct Fleet::Dev {
  DeviceId id = 0;
  int slice = 0;
  int peer_slice = -1;
  int in_port = 0;
  SimTime first_send = 0;
  Bytes frame;          // to the slice collector
  Bytes frame_planted;  // DPI only: same flow, planted signature
  Bytes cross;          // to the peer aggregator (cross senders only)
  Bytes cross_planted;
  std::uint64_t sends_done = 0;
};

bool Fleet::SampledSend(SimTime sent) {
  return Mix64(sent, 0x5A3D) % kLatencySampleEvery == 0;
}

template <typename Call>
void Fleet::Hop(SimTime created_at, Call&& call) {
  auto& inflight = inflight_[static_cast<std::size_t>(Shard())];
  if (!SampledSend(created_at) || !inflight.contains(created_at)) {
    call();
    return;
  }
  const std::uint64_t t0 = HostNs();
  call();
  inflight[created_at] += HostNs() - t0;
}

/// Times every frame a link delivers to a switch.
class Fleet::SwitchTap final : public net::PacketSink {
 public:
  SwitchTap(Fleet& fleet, sdn::Switch& sw) : fleet_(fleet), sw_(sw) {}
  void Receive(net::PacketPtr pkt, int port) override {
    fleet_.Hop(pkt->created_at, [&] {
      if (!fleet_.tracing_.load(std::memory_order_relaxed)) {
        sw_.Receive(std::move(pkt), port);
        return;
      }
      const std::uint64_t t0 = HostNs();
      sw_.Receive(std::move(pkt), port);
      fleet_.Here().Add(kSdn, HostNs() - t0);
    });
  }

 private:
  Fleet& fleet_;
  sdn::Switch& sw_;
};

/// Times every frame a link delivers to a µmbox host and notices frames
/// the host's chain consumed (a block verdict) instead of returning.
class Fleet::HostTap final : public net::PacketSink {
 public:
  HostTap(Fleet& fleet, dataplane::UmboxHost& host,
          iotsec::sim::Simulator& sim)
      : fleet_(fleet), host_(host), host_sim_(sim) {}
  void Receive(net::PacketPtr pkt, int port) override {
    const bool traced = fleet_.tracing_.load(std::memory_order_relaxed);
    net::PacketPtr keep;
    if (fleet_.config_.dpi) keep = pkt;
    bool consumed = false;
    fleet_.Hop(pkt->created_at, [&] {
      const std::uint64_t t0 = traced ? HostNs() : 0;
      const std::uint64_t before = host_.stats().returned;
      host_.Receive(std::move(pkt), port);
      consumed = host_.stats().returned == before;
      if (traced) fleet_.Here().Add(kDataplane, HostNs() - t0);
    });
    if (!consumed) return;
    // The verdict is the frame's terminal point; its checks are timed as
    // the sinks' are.
    const std::uint64_t t0 = traced ? HostNs() : 0;
    OnConsumed(keep);
    if (traced) fleet_.Here().Add(kNet, HostNs() - t0);
  }

 private:
  void OnConsumed(const net::PacketPtr& outer) {
    ShardAccum& acc = fleet_.Here();
    if (!outer) {
      ++acc.bad_block;
      return;
    }
    const auto decap = iotsec::proto::Decapsulate(outer->data());
    const auto inner =
        decap ? iotsec::proto::ParseFrame(decap->inner) : std::nullopt;
    bool planted = false;
    SimTime sent = 0;
    Dev* dev = inner ? fleet_.Identify(*inner, host_sim_.Now(), &sent, &planted)
                     : nullptr;
    if (dev == nullptr || !planted) {
      ++acc.bad_block;
      return;
    }
    ++acc.blocked;
    ++acc.completed;
    fleet_.CompleteSample(sent, acc);
  }

  Fleet& fleet_;
  dataplane::UmboxHost& host_;
  iotsec::sim::Simulator& host_sim_;
};

/// Collector (port 0) and aggregator (port 1) of one slice: checks and
/// folds every delivered frame.
class Fleet::TerminalSink final : public net::PacketSink {
 public:
  TerminalSink(Fleet& fleet, int slice, iotsec::sim::Simulator& sim)
      : fleet_(fleet), slice_(slice), sim_(sim) {}
  void Receive(net::PacketPtr pkt, int port) override {
    const std::uint64_t t0 = HostNs();
    ShardAccum& acc = fleet_.Here();
    const auto* frame = pkt->Parsed();
    bool planted = false;
    SimTime sent = 0;
    Dev* dev = frame ? fleet_.Identify(*frame, sim_.Now(), &sent, &planted)
                     : nullptr;
    const int want_slice = dev == nullptr ? -1
                           : port == 0    ? dev->slice
                                          : dev->peer_slice;
    if (dev == nullptr || planted || want_slice != slice_) {
      ++acc.bad_delivery;
    } else {
      ++acc.delivered;
      ++acc.completed;
      fleet_.CompleteSample(sent, acc);
    }
    if (fleet_.config_.digest) {
      acc.digest += Mix64(
          Fnv64(pkt->data().data(), pkt->data().size()) ^
              (static_cast<std::uint64_t>(slice_ * 2 + port) << 56),
          sim_.Now());
    }
    if (fleet_.tracing_.load(std::memory_order_relaxed)) {
      if (++acc.probe_counter % kProbeEvery == 0) fleet_.ProbeTunnel(*pkt, acc);
      acc.Add(kNet, HostNs() - t0);
    }
  }

 private:
  Fleet& fleet_;
  int slice_;
  iotsec::sim::Simulator& sim_;
};

struct Fleet::Slice {
  int index = 0;
  iotsec::sim::Simulator* sim = nullptr;
  std::unique_ptr<sdn::Switch> sw;
  std::unique_ptr<dataplane::UmboxHost> host;
  std::unique_ptr<SwitchTap> sw_tap;
  std::unique_ptr<HostTap> host_tap;
  std::unique_ptr<TerminalSink> sink;
  net::MacAddress collector_mac;
  net::Ipv4Address collector_ip;
  DeviceId agg_id = 0;
  net::MacAddress agg_mac;
  net::Ipv4Address agg_ip;
  std::vector<int> inter_port;  // port toward slice t (-1 for self)
  const sdn::FlowEntry* inbound_entry = nullptr;
  int local_devices = 0;
};

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  for (int s = 0; s < config_.shards; ++s) {
    pools_.push_back(std::make_unique<net::PacketPool>());
  }
  accums_.resize(static_cast<std::size_t>(config_.shards));
  inflight_.resize(static_cast<std::size_t>(config_.shards));
  last_wrapped_.assign(static_cast<std::size_t>(config_.shards), 0);
  iotsec::sim::ShardSet::Options so;
  so.shards = config_.shards;
  so.quantum = config_.quantum;
  so.use_threads = config_.threads;
  so.enter_shard = [this](int shard) {
    net::PacketPool::BindToThisThread(
        pools_[static_cast<std::size_t>(shard)].get());
  };
  set_ = std::make_unique<iotsec::sim::ShardSet>(std::move(so));

  if (config_.dpi) {
    const auto rules = config_.dpi_gen.Rules();
    const std::uint64_t t0 = HostNs();
    compiled_ = iotsec::sig::CompiledRulesetCache::Instance().GetOrCompile(rules);
    setup_.compile_ns = HostNs() - t0;
  }
  BuildSlices();
  BuildDevices();
  WarmCaches();
  // Each shard thread publishes its CPU clock from an event of its own;
  // the barrier hook reads all of them once per quantum.
  shard_clocks_.assign(static_cast<std::size_t>(config_.shards),
                       CLOCK_THREAD_CPUTIME_ID);
  last_cpu_.assign(static_cast<std::size_t>(config_.shards), 0);
  for (int s = 0; s < config_.shards; ++s) {
    set_->sim(s).At(0, [this, s] {
      pthread_getcpuclockid(pthread_self(),
                            &shard_clocks_[static_cast<std::size_t>(s)]);
    });
  }
  start_ = kStart;
  RunTo(start_);  // every µmbox boots before the first send
}

Fleet::~Fleet() {
  // The ShardSet bound this thread to shard 0's pool, which dies with us.
  net::PacketPool::BindToThisThread(nullptr);
}

void Fleet::BuildSlices() {
  const int n = config_.gen.slices;
  net::LinkConfig cfg;
  cfg.latency = config_.quantum;
  cfg.bandwidth_bps = 1e12;  // serialization delay rounds to 0 ns
  cfg.queue_limit = kQueueLimit;

  for (int s = 0; s < n; ++s) {
    auto slice = std::make_unique<Slice>();
    slice->index = s;
    slice->sim = &set_->sim(ShardOfSlice(s));
    slice->sw = std::make_unique<sdn::Switch>(
        static_cast<iotsec::SwitchId>(100 + s), *slice->sim,
        sdn::Switch::MissBehavior::kDrop);
    slice->host = std::make_unique<dataplane::UmboxHost>(
        static_cast<iotsec::ServerId>(1000 + s), *slice->sim,
        config_.gen.devices / n + 8);
    slice->sw_tap = std::make_unique<SwitchTap>(*this, *slice->sw);
    slice->host_tap = std::make_unique<HostTap>(*this, *slice->host, *slice->sim);
    slice->sink = std::make_unique<TerminalSink>(*this, s, *slice->sim);
    slice->collector_mac =
        net::MacAddress::FromId(0xC01000u + static_cast<std::uint32_t>(s));
    slice->collector_ip =
        net::Ipv4Address(10, 250, 0, static_cast<std::uint8_t>(s));
    slice->agg_id = static_cast<DeviceId>(config_.gen.devices + 1 + s);
    slice->agg_mac =
        net::MacAddress::FromId(static_cast<std::uint32_t>(slice->agg_id));
    slice->agg_ip = IpOf(slice->agg_id);
    slice->inter_port.assign(static_cast<std::size_t>(n), -1);

    // Ports: 0 = µmbox host uplink, 1 = collector, 2 = aggregator,
    // 3.. = inter-switch. Links deliver into the taps, not the components.
    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* host_link = links_.back().get();
    const int host_port = slice->sw->AttachLink(host_link, 0);
    host_link->Attach(0, slice->sw_tap.get(), host_port);
    slice->host->ConnectUplink(host_link, 1);
    host_link->Attach(1, slice->host_tap.get(), 0);

    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* collector_link = links_.back().get();
    slice->sw->AttachLink(collector_link, 0);
    collector_link->Attach(1, slice->sink.get(), 0);

    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* agg_link = links_.back().get();
    slice->sw->AttachLink(agg_link, 0);
    agg_link->Attach(1, slice->sink.get(), 1);

    slice->sw->SetMacPort(slice->collector_mac, 1);
    slice->sw->SetMacPort(slice->agg_mac, 2);
    slices_.push_back(std::move(slice));
  }

  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      links_.push_back(std::make_unique<net::Link>(*slices_[a]->sim, cfg));
      net::Link* l = links_.back().get();
      const int port_a = slices_[a]->sw->AttachLink(l, 0);
      const int port_b = slices_[b]->sw->AttachLink(l, 1);
      l->Attach(0, slices_[a]->sw_tap.get(), port_a);
      l->Attach(1, slices_[b]->sw_tap.get(), port_b);
      l->BindShards(set_.get(), ShardOfSlice(a), ShardOfSlice(b));
      slices_[a]->inter_port[static_cast<std::size_t>(b)] = port_a;
      slices_[b]->inter_port[static_cast<std::size_t>(a)] = port_b;
      slices_[a]->sw->SetMacPort(slices_[b]->agg_mac, port_a);
      slices_[b]->sw->SetMacPort(slices_[a]->agg_mac, port_b);
    }
  }
}

void Fleet::BuildDevices() {
  const int n = config_.gen.devices;
  devices_.resize(static_cast<std::size_t>(n));
  const std::string chain = config_.dpi
                                ? "sig :: SignatureMatcher(rules=builtin)\n"
                                : "c :: Counter()\n";
  const iotsec::proto::TcpHeader tcp{
      .src_port = 4444,
      .dst_port = 80,
      .flags = iotsec::proto::TcpFlags::kPsh | iotsec::proto::TcpFlags::kAck};

  for (int i = 0; i < n; ++i) {
    const GenDevice g = config_.gen.Device(i);
    Dev& dev = devices_[static_cast<std::size_t>(i)];
    dev.id = g.id;
    dev.slice = g.slice;
    dev.peer_slice = g.peer_slice;
    dev.in_port = 100000 + i;  // virtual ingress port, one per device
    dev.first_send = kStart + g.offset;
    Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];
    ++slice.local_devices;

    const auto mac = net::MacAddress::FromId(static_cast<std::uint32_t>(dev.id));
    const auto ip = IpOf(dev.id);
    auto build = [&](const Slice& to, bool cross, bool planted) {
      const auto& dst_mac = cross ? to.agg_mac : to.collector_mac;
      const auto dst_ip = cross ? to.agg_ip : to.collector_ip;
      const std::uint8_t tag = cross ? kTagCross : kTagTelemetry;
      if (config_.dpi) {
        return iotsec::proto::BuildTcpFrame(
            mac, dst_mac, ip, dst_ip, tcp,
            config_.dpi_gen.Payload(dev.id, tag, planted));
      }
      return iotsec::proto::BuildUdpFrame(mac, dst_mac, ip, dst_ip, 40000,
                                          cross ? 9999 : 514,
                                          TelemetryPayload(dev.id, tag));
    };
    dev.frame = build(slice, false, false);
    if (config_.dpi) dev.frame_planted = build(slice, false, true);
    if (dev.peer_slice >= 0) {
      const Slice& peer = *slices_[static_cast<std::size_t>(dev.peer_slice)];
      dev.cross = build(peer, true, false);
      if (config_.dpi) dev.cross_planted = build(peer, true, true);
    }

    dataplane::UmboxSpec spec;
    spec.id = static_cast<iotsec::UmboxId>(dev.id);
    spec.device = dev.id;
    spec.config_text = chain;
    spec.boot = dataplane::BootModel::kProcess;
    spec.boot_queue_limit = 8;
    spec.shard = ShardOfSlice(dev.slice);
    std::string error;
    const dataplane::ElementContext ctx{slice.sim, nullptr};
    std::uint64_t t0 = HostNs();
    dataplane::Umbox* box = slice.host->Launch(std::move(spec), ctx, &error);
    setup_.launch_ns += HostNs() - t0;
    ++setup_.launches;
    if (box == nullptr) throw std::runtime_error("umbox launch: " + error);
    if (config_.dpi) {
      auto* matcher = dynamic_cast<dataplane::SignatureMatcher*>(
          box->graph()->Find("sig"));
      if (matcher == nullptr) throw std::runtime_error("no SignatureMatcher");
      matcher->AdoptCompiled(compiled_);
    }

    sdn::FlowMatch match;
    match.in_port = dev.in_port;
    t0 = HostNs();
    slice.sw->flow_table().Install(sdn::FlowEntry{
        /*priority=*/100,
        match,
        {sdn::FlowAction::Tunnel(static_cast<iotsec::UmboxId>(dev.id), 0)},
        /*version=*/1,
        /*cookie=*/static_cast<std::uint64_t>(dev.id)});
    setup_.install_ns += HostNs() - t0;
    ++setup_.installs;
  }

  for (auto& slice : slices_) {
    sdn::FlowMatch match;
    match.ip_dst = net::Ipv4Prefix(slice->agg_ip, 32);
    const std::uint64_t t0 = HostNs();
    slice->sw->flow_table().Install(sdn::FlowEntry{
        /*priority=*/50,
        match,
        {sdn::FlowAction::Output(2)},
        /*version=*/1,
        /*cookie=*/0xA6600000ull + static_cast<std::uint64_t>(slice->index)});
    setup_.install_ns += HostNs() - t0;
    ++setup_.installs;
  }
}

void Fleet::WarmCaches() {
  // Entry pointers are stable only once every Install is done, so warm in
  // a second pass: map cookies to entries, then insert each flow's key.
  std::vector<std::map<std::uint64_t, const sdn::FlowEntry*>> by_cookie(
      slices_.size());
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    Slice& slice = *slices_[s];
    const auto keys = static_cast<std::size_t>(slice.local_devices) * 3 + 16;
    slice.sw->microflow_cache().Resize(RoundUpPow2(keys * 4));
    for (const sdn::FlowEntry& e : slice.sw->flow_table().Entries()) {
      by_cookie[s][e.cookie] = &e;
    }
    slice.inbound_entry =
        by_cookie[s][0xA6600000ull + static_cast<std::uint64_t>(slice.index)];
  }
  for (const Dev& dev : devices_) {
    Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];
    const std::uint64_t gen = slice.sw->flow_table().generation();
    const sdn::FlowEntry* tunnel =
        by_cookie[static_cast<std::size_t>(dev.slice)]
                 [static_cast<std::uint64_t>(dev.id)];
    const auto frame = iotsec::proto::ParseFrame(dev.frame);
    slice.sw->microflow_cache().Insert(
        sdn::FlowKey::FromFrame(*frame, dev.in_port), tunnel, gen);
    if (dev.cross.empty()) continue;
    const auto cross = iotsec::proto::ParseFrame(dev.cross);
    slice.sw->microflow_cache().Insert(
        sdn::FlowKey::FromFrame(*cross, dev.in_port), tunnel, gen);
    Slice& peer = *slices_[static_cast<std::size_t>(dev.peer_slice)];
    peer.sw->microflow_cache().Insert(
        sdn::FlowKey::FromFrame(
            *cross, peer.inter_port[static_cast<std::size_t>(dev.slice)]),
        peer.inbound_entry, peer.sw->flow_table().generation());
  }
  // The open-loop schedule: each device's first send, then one send per
  // interval until SendUntil() or max_sends stops it.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    set_->sim(ShardOfSlice(devices_[i].slice))
        .At(devices_[i].first_send, [this, i] { SendOne(i); });
  }
}

void Fleet::Inject(Slice& slice, net::PacketPtr pkt, int in_port,
                   ShardAccum& acc) {
  Hop(pkt->created_at, [&] {
    if (!tracing_.load(std::memory_order_relaxed)) {
      slice.sw->Receive(std::move(pkt), in_port);
      return;
    }
    const std::uint64_t t0 = HostNs();
    slice.sw->Receive(std::move(pkt), in_port);
    acc.Add(kSdn, HostNs() - t0);
  });
}

void Fleet::SendOne(std::size_t index) {
  Dev& dev = devices_[index];
  Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];
  const SimTime now = slice.sim->Now();
  if (now >= send_until_.load(std::memory_order_relaxed)) return;
  ShardAccum& acc = Here();
  const bool traced = tracing_.load(std::memory_order_relaxed);
  const std::uint64_t t0 = traced ? HostNs() : 0;
  const std::uint64_t sdn_before = acc.ns[kSdn];
  const bool planted =
      config_.dpi && config_.dpi_gen.Planted(dev.id, dev.sends_done);
  // Only single-frame sends are sampled: a cross sender's two frames
  // share their send time. Traced windows take no samples, so the clock
  // reads stay out of the layer spans.
  if (!traced && dev.cross.empty() && SampledSend(now)) {
    inflight_[static_cast<std::size_t>(Shard())].emplace(now, 0);
  }

  auto pkt = net::MakePacket(Bytes(planted ? dev.frame_planted : dev.frame));
  pkt->created_at = now;
  Inject(slice, std::move(pkt), dev.in_port, acc);
  ++acc.injected;
  if (!dev.cross.empty()) {
    auto cross = net::MakePacket(Bytes(planted ? dev.cross_planted : dev.cross));
    cross->created_at = now;
    Inject(slice, std::move(cross), dev.in_port, acc);
    ++acc.injected;
  }
  if (planted) acc.planted_injected += dev.cross.empty() ? 1 : 2;

  ++dev.sends_done;
  if (config_.max_sends == 0 ||
      dev.sends_done < static_cast<std::uint64_t>(config_.max_sends)) {
    slice.sim->At(now + config_.gen.interval, [this, index] { SendOne(index); });
  }
  if (traced) {
    const std::uint64_t inner = acc.ns[kSdn] - sdn_before;
    acc.Add(kGen, HostNs() - t0 - inner);
  }
}

void Fleet::CompleteSample(SimTime sent, ShardAccum& acc) {
  if (!SampledSend(sent)) return;
  auto& inflight = inflight_[static_cast<std::size_t>(Shard())];
  const auto it = inflight.find(sent);
  if (it == inflight.end()) return;
  acc.latency_ns.push_back(it->second);
  inflight.erase(it);
}

Fleet::Dev* Fleet::Identify(const iotsec::proto::ParsedFrame& frame,
                            SimTime now, SimTime* sent, bool* planted) {
  std::uint8_t tag = 0;
  const DeviceId id =
      PayloadDevice(frame.payload.data(), frame.payload.size(), &tag);
  if (id < 1 || id > devices_.size()) return nullptr;
  Dev& dev = devices_[static_cast<std::size_t>(id - 1)];
  if (tag != kTagTelemetry && !(tag == kTagCross && dev.peer_slice >= 0)) {
    return nullptr;
  }
  // Paths take well under one send interval, so the send a frame belongs
  // to is the device's latest send at or before `now`. (Frames returning
  // from a µmbox lose Packet::created_at at the switch, so the sinks
  // cannot read it.)
  if (now < dev.first_send) return nullptr;
  const std::uint64_t k = (now - dev.first_send) / config_.gen.interval;
  *sent = dev.first_send + k * config_.gen.interval;
  *planted = config_.dpi && config_.dpi_gen.Planted(id, k);
  return &dev;
}

void Fleet::ProbeTunnel(const net::Packet& pkt, ShardAccum& acc) {
  const std::uint64_t t0 = HostNs();
  iotsec::proto::TunnelHeader th;
  th.vni = 7;
  th.origin_switch = 100;
  const Bytes outer = iotsec::proto::Encapsulate(
      net::MacAddress::FromId(0xee0001), net::MacAddress::Broadcast(), th,
      pkt.data());
  const std::uint64_t t1 = HostNs();
  const auto inner = iotsec::proto::Decapsulate(outer);
  const std::uint64_t t2 = HostNs();
  if (!inner || inner->inner != pkt.data()) ++acc.bad_delivery;
  acc.encap_ns.push_back(t1 - t0);
  acc.decap_ns.push_back(t2 - t1);
  acc.probe_ns += HostNs() - t0;
}

void Fleet::RunTo(SimTime t) {
  last_hook_ns_ = HostNs();
  for (int s = 0; s < set_->shard_count(); ++s) {
    const auto i = static_cast<std::size_t>(s);
    last_wrapped_[i] = accum(s).wrapped_ns;
    last_cpu_[i] = ClockNs(shard_clocks_[i]);
  }
  set_->RunUntil(t, [this](SimTime) { OnBarrier(); });
}

void Fleet::OnBarrier() {
  std::uint64_t busiest_cpu = 0;
  for (std::size_t i = 0; i < shard_clocks_.size(); ++i) {
    const std::uint64_t cpu = ClockNs(shard_clocks_[i]);
    if (cpu > last_cpu_[i]) busiest_cpu = std::max(busiest_cpu, cpu - last_cpu_[i]);
    last_cpu_[i] = cpu;
  }
  crit_ns_ += busiest_cpu;
  if (!tracing_.load(std::memory_order_relaxed)) return;
  const std::uint64_t now = HostNs();
  const std::uint64_t wall = now - last_hook_ns_;
  last_hook_ns_ = now;
  std::uint64_t busiest = 0;
  for (int s = 0; s < set_->shard_count(); ++s) {
    auto& last = last_wrapped_[static_cast<std::size_t>(s)];
    busiest = std::max(busiest, accum(s).wrapped_ns - last);
    last = accum(s).wrapped_ns;
  }
  quanta_.wall_us.push_back(static_cast<double>(wall) / 1e3);
  quanta_.wall_ns += wall;
  quanta_.wait_ns += wall > busiest ? wall - busiest : 0;
}

void Fleet::SetTracing(bool on) {
  tracing_.store(on, std::memory_order_relaxed);
  iotsec::obs::SetSampling(on);
}

std::uint64_t Fleet::Completed() const {
  std::uint64_t n = 0;
  for (const auto& a : accums_) n += a.completed;
  return n;
}

std::uint64_t Fleet::EventsProcessed() {
  std::uint64_t n = 0;
  for (int s = 0; s < set_->shard_count(); ++s) {
    n += set_->sim(s).EventsProcessed();
  }
  return n;
}

Fleet::Totals Fleet::Collect() const {
  Totals t;
  for (const auto& a : accums_) {
    t.injected += a.injected;
    t.planted_injected += a.planted_injected;
    t.delivered += a.delivered;
    t.blocked += a.blocked;
    t.bad_delivery += a.bad_delivery;
    t.bad_block += a.bad_block;
    t.digest += a.digest;
  }
  for (const auto& slice : slices_) {
    t.processed += slice->host->AggregatedUmboxStats().processed;
    const auto& mc = slice->sw->microflow_cache().stats();
    t.microflow_hits += mc.hits;
    t.microflow_lookups += mc.hits + mc.misses + mc.stale;
  }
  for (const auto& link : links_) {
    t.queue_drops += link->stats(0).drops + link->stats(1).drops;
  }
  for (const auto& pool : pools_) t.foreign_releases += pool->ForeignReleases();
  t.late_posts = set_->late_posts();
  t.cross_shard_events = set_->cross_shard_events();
  return t;
}

}  // namespace perfbench
