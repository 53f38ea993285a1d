// Tests for flow tables, switch forwarding semantics, and tunneling.
#include <gtest/gtest.h>

#include <algorithm>

#include "dataplane/cluster.h"
#include "proto/frame.h"
#include "sdn/switch.h"

namespace iotsec::sdn {
namespace {

using net::Ipv4Address;
using net::MacAddress;

Bytes UdpWire(Ipv4Address src, Ipv4Address dst, std::uint16_t dport,
              std::string_view payload, MacAddress src_mac = MacAddress::FromId(1),
              MacAddress dst_mac = MacAddress::FromId(2)) {
  return proto::BuildUdpFrame(src_mac, dst_mac, src, dst, 1111, dport,
                              ToBytes(payload));
}

proto::ParsedFrame Parse(const Bytes& wire) {
  auto f = proto::ParseFrame(wire);
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(FlowMatchTest, WildcardAndFieldMatching) {
  const Bytes wire = UdpWire(Ipv4Address(10, 0, 0, 5), Ipv4Address(10, 0, 0, 9),
                             5009, "x");
  const auto frame = Parse(wire);

  EXPECT_TRUE(FlowMatch::Any().Matches(frame, 3));

  FlowMatch m;
  m.in_port = 3;
  EXPECT_TRUE(m.Matches(frame, 3));
  EXPECT_FALSE(m.Matches(frame, 4));

  FlowMatch ip = FlowMatch::FromIp(Ipv4Address(10, 0, 0, 5));
  EXPECT_TRUE(ip.Matches(frame, 0));
  EXPECT_FALSE(FlowMatch::FromIp(Ipv4Address(10, 0, 0, 6)).Matches(frame, 0));
  EXPECT_TRUE(FlowMatch::ToIp(Ipv4Address(10, 0, 0, 9)).Matches(frame, 0));

  FlowMatch port;
  port.l4_dst = 5009;
  EXPECT_TRUE(port.Matches(frame, 0));
  port.l4_dst = 80;
  EXPECT_FALSE(port.Matches(frame, 0));

  FlowMatch proto_match;
  proto_match.ip_proto = proto::IpProto::kTcp;
  EXPECT_FALSE(proto_match.Matches(frame, 0));
  proto_match.ip_proto = proto::IpProto::kUdp;
  EXPECT_TRUE(proto_match.Matches(frame, 0));

  FlowMatch mac;
  mac.eth_src = MacAddress::FromId(1);
  EXPECT_TRUE(mac.Matches(frame, 0));
  mac.eth_src = MacAddress::FromId(42);
  EXPECT_FALSE(mac.Matches(frame, 0));
}

TEST(FlowTableTest, PriorityOrderAndTies) {
  FlowTable table;
  FlowEntry low;
  low.priority = 1;
  low.cookie = 1;
  FlowEntry high;
  high.priority = 100;
  high.match = FlowMatch::FromIp(Ipv4Address(10, 0, 0, 5));
  high.cookie = 2;
  table.Install(low);
  table.Install(high);

  const Bytes hit = UdpWire(Ipv4Address(10, 0, 0, 5), Ipv4Address(1, 1, 1, 1),
                            9, "x");
  const Bytes miss = UdpWire(Ipv4Address(10, 0, 0, 6), Ipv4Address(1, 1, 1, 1),
                             9, "x");
  EXPECT_EQ(table.Lookup(Parse(hit), 0)->cookie, 2u);
  EXPECT_EQ(table.Lookup(Parse(miss), 0)->cookie, 1u);

  // Equal priority: earliest installed wins.
  FlowTable tie;
  FlowEntry a;
  a.priority = 5;
  a.cookie = 10;
  FlowEntry b;
  b.priority = 5;
  b.cookie = 20;
  tie.Install(a);
  tie.Install(b);
  EXPECT_EQ(tie.Lookup(Parse(hit), 0)->cookie, 10u);
}

TEST(FlowTableTest, RemoveByCookieAndVersionSweep) {
  FlowTable table;
  for (int i = 0; i < 6; ++i) {
    FlowEntry e;
    e.priority = i;
    e.cookie = static_cast<std::uint64_t>(i % 2);
    e.version = static_cast<std::uint64_t>(i < 3 ? 1 : 2);
    table.Install(e);
  }
  EXPECT_EQ(table.Size(), 6u);
  EXPECT_EQ(table.RemoveByCookie(1), 3u);
  EXPECT_EQ(table.Size(), 3u);
  EXPECT_EQ(table.RemoveOlderThan(2), 2u);  // versions 1 swept
  EXPECT_EQ(table.Size(), 1u);
}

TEST(FlowTableTest, CountersAccumulate) {
  FlowTable table;
  FlowEntry e;
  e.priority = 1;
  table.Install(e);
  const Bytes wire = UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             9, "abc");
  const auto frame = Parse(wire);
  (void)table.Lookup(frame, 0, wire.size());
  (void)table.Lookup(frame, 0, wire.size());
  EXPECT_EQ(table.Entries()[0].packets, 2u);
  EXPECT_EQ(table.Entries()[0].bytes, 2 * wire.size());
}

// ------------------------------------------------------------- Switch

class Collector final : public net::PacketSink {
 public:
  void Receive(net::PacketPtr pkt, int port) override {
    packets.push_back(std::move(pkt));
    (void)port;
  }
  std::vector<net::PacketPtr> packets;
};

struct SwitchRig {
  sim::Simulator sim;
  Switch sw{7, sim, Switch::MissBehavior::kDrop};
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<Collector>> sinks;

  /// Adds a port with a collector hanging off it; returns the port index.
  int AddPort() {
    links.push_back(std::make_unique<net::Link>(sim, net::LinkConfig{}));
    sinks.push_back(std::make_unique<Collector>());
    const int port = sw.AttachLink(links.back().get(), 0);
    links.back()->Attach(1, sinks.back().get(), 0);
    return port;
  }

  void InjectOn(int port, Bytes wire) {
    // Send from the far end of that port's link toward the switch.
    links[static_cast<std::size_t>(port)]->Send(1, net::MakePacket(std::move(wire)));
  }
};

TEST(SwitchTest, OutputActionForwards) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  const int p1 = rig.AddPort();

  FlowEntry e;
  e.priority = 10;
  e.match.in_port = p0;
  e.actions = {FlowAction::Output(p1)};
  rig.sw.flow_table().Install(e);

  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "fwd"));
  rig.sim.Run();
  EXPECT_EQ(rig.sinks[static_cast<std::size_t>(p1)]->packets.size(), 1u);
  EXPECT_EQ(rig.sinks[static_cast<std::size_t>(p0)]->packets.size(), 0u);
  EXPECT_EQ(rig.sw.stats().frames, 1u);
}

TEST(SwitchTest, DropAndMissBehavior) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  rig.AddPort();

  // No entries, kDrop: everything vanishes.
  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "x"));
  rig.sim.Run();
  EXPECT_EQ(rig.sw.stats().misses, 1u);
  EXPECT_EQ(rig.sw.stats().drops, 1u);

  // Flood mode: copies to every port but ingress.
  rig.sw.SetMissBehavior(Switch::MissBehavior::kFlood);
  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "x"));
  rig.sim.Run();
  EXPECT_EQ(rig.sinks[1]->packets.size(), 1u);
  EXPECT_EQ(rig.sinks[0]->packets.size(), 0u);
}

class PacketInCollector final : public PacketInHandler {
 public:
  void OnPacketIn(SwitchId sw, int in_port, net::PacketPtr pkt) override {
    events.emplace_back(sw, in_port);
    packets.push_back(std::move(pkt));
  }
  std::vector<std::pair<SwitchId, int>> events;
  std::vector<net::PacketPtr> packets;
};

TEST(SwitchTest, PacketInOnMiss) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  PacketInCollector handler;
  rig.sw.SetPacketInHandler(&handler);
  rig.sw.SetMissBehavior(Switch::MissBehavior::kToController);

  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "tocontroller"));
  rig.sim.Run();
  ASSERT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(handler.events[0].first, 7u);
  EXPECT_EQ(handler.events[0].second, p0);
}

TEST(SwitchTest, TunnelDivertAndReturn) {
  SwitchRig rig;
  const int device_port = rig.AddPort();
  const int cluster_port = rig.AddPort();
  const int peer_port = rig.AddPort();

  const auto device_ip = Ipv4Address(10, 0, 0, 5);
  const auto peer_mac = MacAddress::FromId(2);
  rig.sw.SetMacPort(peer_mac, peer_port);

  FlowEntry divert;
  divert.priority = 100;
  divert.match = FlowMatch::FromIp(device_ip);
  divert.actions = {FlowAction::Tunnel(/*umbox=*/55, cluster_port)};
  rig.sw.flow_table().Install(divert);

  // Device emits a frame: it must arrive at the cluster port encapsulated.
  rig.InjectOn(device_port,
               UdpWire(device_ip, Ipv4Address(10, 0, 0, 9), 5009, "diverted"));
  rig.sim.Run();
  auto& cluster_sink = *rig.sinks[static_cast<std::size_t>(cluster_port)];
  ASSERT_EQ(cluster_sink.packets.size(), 1u);
  auto decap = proto::Decapsulate(cluster_sink.packets[0]->data());
  ASSERT_TRUE(decap.has_value());
  EXPECT_EQ(decap->header.vni, 55u);
  EXPECT_EQ(decap->header.origin_switch, 7u);
  EXPECT_EQ(decap->header.direction, proto::TunnelDirection::kToUmbox);
  EXPECT_EQ(rig.sw.stats().tunneled, 1u);

  // The µmbox verdict comes back: switch decapsulates and delivers to the
  // destination MAC's port.
  proto::TunnelHeader th;
  th.vni = 55;
  th.direction = proto::TunnelDirection::kFromUmbox;
  th.origin_switch = 7;
  Bytes verdict = proto::Encapsulate(
      MacAddress::FromId(0xee), MacAddress::Broadcast(), th, decap->inner);
  rig.InjectOn(cluster_port, verdict);
  rig.sim.Run();
  auto& peer_sink = *rig.sinks[static_cast<std::size_t>(peer_port)];
  ASSERT_EQ(peer_sink.packets.size(), 1u);
  EXPECT_EQ(rig.sw.stats().decapsulated, 1u);
  auto inner = proto::ParseFrame(peer_sink.packets[0]->data());
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(ToString(inner->payload), "diverted");
}

TEST(SwitchTest, TunnelReturnKeepsCreatedAtAndTrace) {
  // A frame diverted through a real µmbox host and returned by the origin
  // switch must reach its destination with the creation time it was
  // injected with and the hops it took before the tunnel.
  SwitchRig rig;
  const int device_port = rig.AddPort();
  const int peer_port = rig.AddPort();
  rig.links.push_back(std::make_unique<net::Link>(rig.sim, net::LinkConfig{}));
  const int cluster_port = rig.sw.AttachLink(rig.links.back().get(), 0);
  dataplane::UmboxHost host(1, rig.sim);
  host.ConnectUplink(rig.links.back().get(), 1);
  dataplane::ElementContext ctx;
  ctx.sim = &rig.sim;
  dataplane::UmboxSpec spec;
  spec.id = 55;
  spec.config_text = "c :: Counter()\n";
  std::string error;
  ASSERT_NE(host.Launch(spec, ctx, &error), nullptr) << error;
  rig.sim.RunFor(kSecond);  // boot

  const auto device_ip = Ipv4Address(10, 0, 0, 5);
  rig.sw.SetMacPort(MacAddress::FromId(2), peer_port);
  FlowEntry divert;
  divert.priority = 100;
  divert.match = FlowMatch::FromIp(device_ip);
  divert.match.in_port = device_port;
  divert.actions = {FlowAction::Tunnel(/*umbox=*/55, cluster_port)};
  rig.sw.flow_table().Install(divert);

  constexpr SimTime kCreatedAt = 123 * kMillisecond;
  auto pkt = net::MakePacket(
      UdpWire(device_ip, Ipv4Address(10, 0, 0, 9), 5009, "timed"));
  pkt->created_at = kCreatedAt;
  pkt->Trace("device");
  rig.links[static_cast<std::size_t>(device_port)]->Send(1, std::move(pkt));
  rig.sim.Run();

  EXPECT_EQ(rig.sw.stats().tunneled, 1u);
  EXPECT_EQ(rig.sw.stats().decapsulated, 1u);
  auto& peer_sink = *rig.sinks[static_cast<std::size_t>(peer_port)];
  ASSERT_EQ(peer_sink.packets.size(), 1u);
  const net::Packet& delivered = *peer_sink.packets[0];
  EXPECT_EQ(delivered.created_at, kCreatedAt);
  if (net::Packet::TracingEnabled()) {
    const auto& trace = delivered.trace();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front(), "device");
    EXPECT_GE(std::count(trace.begin(), trace.end(), "switch:7"), 2)
        << "both the diverting and the returning pass through the switch";
  }
}

TEST(SwitchTest, MalformedFrameDropped) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  rig.InjectOn(p0, Bytes{1, 2, 3});
  rig.sim.Run();
  EXPECT_EQ(rig.sw.stats().drops, 1u);
}

}  // namespace
}  // namespace iotsec::sdn
