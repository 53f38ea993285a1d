// Tests for links and the connection tracker.
#include <gtest/gtest.h>

#include "net/link.h"
#include "proto/conn_track.h"
#include "proto/frame.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

class Collector final : public net::PacketSink {
 public:
  void Receive(net::PacketPtr pkt, int port) override {
    packets.push_back(std::move(pkt));
    ports.push_back(port);
  }
  std::vector<net::PacketPtr> packets;
  std::vector<int> ports;
};

TEST(LinkTest, DeliversAfterLatency) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.latency = kMillisecond;
  cfg.bandwidth_bps = 1e9;
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 7);

  auto pkt = net::MakePacket(Bytes(100, 0xaa));
  link.Send(0, pkt);
  sim.RunUntil(kMillisecond - 1);
  EXPECT_TRUE(sink.packets.empty());
  sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.ports[0], 7);
  EXPECT_EQ(sink.packets[0]->size(), 100u);
}

TEST(LinkTest, SerializationDelayScalesWithSize) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.latency = 0;
  cfg.bandwidth_bps = 8000.0;  // 1000 bytes/sec
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);

  link.Send(0, net::MakePacket(Bytes(500, 1)));  // 0.5s to serialize
  sim.RunUntil(499 * kMillisecond);
  EXPECT_TRUE(sink.packets.empty());
  sim.RunUntil(501 * kMillisecond);
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(LinkTest, FifoOrderAndQueueing) {
  sim::Simulator sim;
  net::Link link(sim, {});
  Collector sink;
  link.Attach(1, &sink, 0);
  for (int i = 0; i < 5; ++i) {
    link.Send(0, net::MakePacket(Bytes(static_cast<std::size_t>(i + 1), 0)));
  }
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.packets[static_cast<std::size_t>(i)]->size(),
              static_cast<std::size_t>(i + 1));
  }
}

TEST(LinkTest, DropsWhenQueueFull) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.queue_limit = 2;
  cfg.bandwidth_bps = 1000.0;  // slow, so the queue fills
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);
  for (int i = 0; i < 10; ++i) {
    link.Send(0, net::MakePacket(Bytes(100, 0)));
  }
  sim.Run();
  EXPECT_GT(link.stats(0).drops, 0u);
  EXPECT_LT(sink.packets.size(), 10u);
}

TEST(LinkTest, FullDuplexIndependentDirections) {
  sim::Simulator sim;
  net::Link link(sim, {});
  Collector left;
  Collector right;
  link.Attach(0, &left, 0);
  link.Attach(1, &right, 0);
  link.Send(0, net::MakePacket(Bytes(10, 1)));
  link.Send(1, net::MakePacket(Bytes(20, 2)));
  sim.Run();
  ASSERT_EQ(left.packets.size(), 1u);
  ASSERT_EQ(right.packets.size(), 1u);
  EXPECT_EQ(left.packets[0]->size(), 20u);
  EXPECT_EQ(right.packets[0]->size(), 10u);
}

// ---------------------------------------------------------- ConnTracker

proto::ParsedFrame TcpFrame(Ipv4Address src, Ipv4Address dst,
                            std::uint16_t sport, std::uint16_t dport,
                            std::uint8_t flags, Bytes& storage) {
  proto::TcpHeader tcp;
  tcp.src_port = sport;
  tcp.dst_port = dport;
  tcp.flags = flags;
  storage = proto::BuildTcpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                                 src, dst, tcp, {});
  return *proto::ParseFrame(storage);
}

TEST(ConnTrackerTest, TcpHandshakeProgression) {
  proto::ConnectionTracker tracker;
  const Ipv4Address client(10, 0, 0, 5);
  const Ipv4Address server(10, 0, 0, 9);
  Bytes b1, b2, b3;
  using proto::TcpFlags;

  auto syn = TcpFrame(client, server, 1000, 80, TcpFlags::kSyn, b1);
  EXPECT_EQ(tracker.Update(syn, 0), proto::ConnState::kSynSent);

  auto synack = TcpFrame(server, client, 80, 1000,
                         TcpFlags::kSyn | TcpFlags::kAck, b2);
  EXPECT_EQ(tracker.Update(synack, kMillisecond),
            proto::ConnState::kSynReceived);

  auto ack = TcpFrame(client, server, 1000, 80, TcpFlags::kAck, b3);
  EXPECT_EQ(tracker.Update(ack, 2 * kMillisecond),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.ActiveConnections(), 1u);
}

TEST(ConnTrackerTest, MidStreamPacketForUnknownFlowIgnored) {
  proto::ConnectionTracker tracker;
  Bytes b;
  auto data = TcpFrame(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 5, 6,
                       proto::TcpFlags::kPsh | proto::TcpFlags::kAck, b);
  EXPECT_EQ(tracker.Update(data, 0), proto::ConnState::kNone);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

TEST(ConnTrackerTest, ReplyDetection) {
  proto::ConnectionTracker tracker;
  const Ipv4Address inside(10, 0, 0, 5);
  const Ipv4Address outside(99, 9, 9, 9);
  Bytes b1, b2, b3;
  auto syn = TcpFrame(inside, outside, 2000, 443, proto::TcpFlags::kSyn, b1);
  tracker.Update(syn, 0);

  auto reply = TcpFrame(outside, inside, 443, 2000,
                        proto::TcpFlags::kSyn | proto::TcpFlags::kAck, b2);
  EXPECT_TRUE(tracker.IsReplyToTracked(reply, kMillisecond));

  // Same direction as the initiator: not a reply.
  auto more = TcpFrame(inside, outside, 2000, 443, proto::TcpFlags::kAck, b3);
  EXPECT_FALSE(tracker.IsReplyToTracked(more, kMillisecond));

  // A different flow entirely: not a reply.
  Bytes b4;
  auto other = TcpFrame(outside, inside, 443, 2001,
                        proto::TcpFlags::kSyn | proto::TcpFlags::kAck, b4);
  EXPECT_FALSE(tracker.IsReplyToTracked(other, kMillisecond));
}

TEST(ConnTrackerTest, RstClosesConnection) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  Bytes b1, b2;
  tracker.Update(TcpFrame(a, b, 1, 2, proto::TcpFlags::kSyn, b1), 0);
  EXPECT_EQ(tracker.Update(TcpFrame(a, b, 1, 2, proto::TcpFlags::kRst, b2), 1),
            proto::ConnState::kClosed);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

TEST(ConnTrackerTest, UdpExchangeTracksAndTimesOut) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  Bytes storage = proto::BuildUdpFrame(MacAddress::FromId(1),
                                       MacAddress::FromId(2), a, b, 111, 222,
                                       ToBytes("x"));
  auto frame = *proto::ParseFrame(storage);
  EXPECT_EQ(tracker.Update(frame, 0), proto::ConnState::kEstablished);

  Bytes reply_storage = proto::BuildUdpFrame(
      MacAddress::FromId(2), MacAddress::FromId(1), b, a, 222, 111,
      ToBytes("y"));
  auto reply = *proto::ParseFrame(reply_storage);
  EXPECT_TRUE(tracker.IsReplyToTracked(reply, 100 * kMillisecond));
  // After the idle timeout the flow is forgotten.
  EXPECT_FALSE(
      tracker.IsReplyToTracked(reply, proto::kUdpIdleTimeout + kSecond));
}

TEST(ConnTrackerTest, EvictIdleDropsIdleUdpFlows) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  Bytes storage = proto::BuildUdpFrame(MacAddress::FromId(1),
                                       MacAddress::FromId(2), a, b, 111, 222,
                                       ToBytes("x"));
  const auto frame = *proto::ParseFrame(storage);
  tracker.Update(frame, 0);
  const SimTime idle = proto::kUdpIdleTimeout + kSecond;
  proto::FiveTuple tuple;
  ASSERT_TRUE(proto::FiveTuple::FromFrame(frame, tuple));
  ASSERT_EQ(tracker.Lookup(tuple, idle), proto::ConnState::kNone);

  // Eviction applies the UDP timeout, not the (longer) TCP one.
  tracker.EvictIdle(idle);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

TEST(ConnTrackerTest, FinFinClosesGracefully) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  using proto::TcpFlags;
  Bytes s1, s2, s3, s4, s5;
  tracker.Update(TcpFrame(a, b, 1, 2, TcpFlags::kSyn, s1), 0);
  tracker.Update(TcpFrame(b, a, 2, 1, TcpFlags::kSyn | TcpFlags::kAck, s2), 1);
  tracker.Update(TcpFrame(a, b, 1, 2, TcpFlags::kAck, s3), 2);
  EXPECT_EQ(tracker.Update(
                TcpFrame(a, b, 1, 2, TcpFlags::kFin | TcpFlags::kAck, s4), 3),
            proto::ConnState::kFinWait);
  EXPECT_EQ(tracker.Update(
                TcpFrame(b, a, 2, 1, TcpFlags::kFin | TcpFlags::kAck, s5), 4),
            proto::ConnState::kClosed);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

}  // namespace
}  // namespace iotsec
