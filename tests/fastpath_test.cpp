// Fast-path correctness: microflow cache ≡ linear scan (property test),
// generation invalidation, parse-once header caching and pooled packets.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/packet.h"
#include "proto/frame.h"
#include "sdn/flow_key.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"
#include "sdn/switch.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

Bytes RandomUdpFrame(Rng& rng) {
  const auto src_mac =
      MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  const auto dst_mac =
      MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  const Ipv4Address src(10, 0, 0,
                        static_cast<std::uint8_t>(rng.NextBelow(16)));
  const Ipv4Address dst(10, 0, 0,
                        static_cast<std::uint8_t>(rng.NextBelow(16)));
  const auto sport = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  const auto dport = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  const std::uint8_t payload[] = {0xab, 0xcd};
  return proto::BuildUdpFrame(src_mac, dst_mac, src, dst, sport, dport,
                              payload);
}

sdn::FlowEntry RandomEntry(Rng& rng, std::uint64_t cookie,
                           std::uint64_t version) {
  sdn::FlowEntry entry;
  entry.priority = static_cast<int>(rng.NextBelow(8));
  entry.cookie = cookie;
  entry.version = version;
  entry.actions.push_back(sdn::FlowAction::Output(0));
  auto& m = entry.match;
  // Each field wildcarded or pinned independently, drawing from the same
  // small value pools as RandomUdpFrame so matches actually occur.
  if (rng.NextBool(0.3)) m.in_port = static_cast<int>(rng.NextBelow(4));
  if (rng.NextBool(0.3)) {
    m.eth_src = MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  }
  if (rng.NextBool(0.3)) {
    m.eth_dst = MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  }
  if (rng.NextBool(0.2)) m.ethertype = proto::EtherType::kIpv4;
  if (rng.NextBool(0.4)) {
    m.ip_src = net::Ipv4Prefix(
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.NextBelow(16))),
        static_cast<int>(24 + rng.NextBelow(9)));
  }
  if (rng.NextBool(0.4)) {
    m.ip_dst = net::Ipv4Prefix(
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.NextBelow(16))),
        static_cast<int>(24 + rng.NextBelow(9)));
  }
  if (rng.NextBool(0.2)) m.ip_proto = proto::IpProto::kUdp;
  if (rng.NextBool(0.3)) {
    m.l4_src = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  }
  if (rng.NextBool(0.3)) {
    m.l4_dst = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  }
  return entry;
}

// The core semantic-equivalence property: across randomized rule tables,
// randomized frames, and randomized mutation sequences (install, remove by
// cookie, version sweep, clear), the cache-fronted lookup returns exactly
// the entry the pure linear scan returns — including cached negatives.
TEST(MicroflowCacheProperty, CacheEquivalentToLinearScanUnderMutation) {
  Rng rng(0xfa57);
  for (int round = 0; round < 30; ++round) {
    sdn::FlowTable table;
    sdn::MicroflowCache cache(256);  // small: exercises collisions too
    std::uint64_t next_cookie = 1;
    std::uint64_t version = 1;
    for (int i = 0; i < 24; ++i) {
      table.Install(RandomEntry(rng, next_cookie++, version));
    }
    // A bounded working set of flows, so the steady state revisits the
    // same exact flows and the cache actually serves hits.
    std::vector<Bytes> flows;
    for (int i = 0; i < 12; ++i) flows.push_back(RandomUdpFrame(rng));
    for (int step = 0; step < 600; ++step) {
      // Mutate the table ~10% of the time.
      if (rng.NextBool(0.10)) {
        switch (rng.NextBelow(4)) {
          case 0:
            table.Install(RandomEntry(rng, next_cookie++, version));
            break;
          case 1:
            table.RemoveByCookie(1 + rng.NextBelow(next_cookie));
            break;
          case 2:
            ++version;
            // Reinstall a few entries at the new version, sweep the rest.
            for (int i = 0; i < 4; ++i) {
              table.Install(RandomEntry(rng, next_cookie++, version));
            }
            table.RemoveOlderThan(version);
            break;
          case 3:
            if (rng.NextBool(0.1)) table.Clear();
            break;
        }
      }
      const Bytes& bytes = flows[rng.NextBelow(flows.size())];
      const auto frame = proto::ParseFrame(bytes);
      ASSERT_TRUE(frame.has_value());
      const int in_port = static_cast<int>(rng.NextBelow(4));
      // Linear scan first with no byte accounting, cached second with
      // accounting, so counters are attributed once per lookup pair.
      const sdn::FlowEntry* scanned = table.Lookup(*frame, in_port, 0);
      const sdn::FlowEntry* cached =
          table.LookupCached(cache, *frame, in_port, bytes.size());
      ASSERT_EQ(scanned, cached)
          << "round " << round << " step " << step
          << " gen " << table.generation();
    }
    // The steady-state phase above must actually exercise the cache.
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

TEST(MicroflowCache, InvalidatedByInstallRemoveAndClear) {
  sdn::FlowTable table;
  sdn::MicroflowCache cache;

  sdn::FlowEntry low;
  low.priority = 1;
  low.cookie = 7;
  low.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32);
  low.actions.push_back(sdn::FlowAction::Output(1));
  table.Install(low);

  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 9),
      Ipv4Address(10, 0, 0, 1), 1111, 2222, {});
  const auto frame = proto::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());

  const sdn::FlowEntry* first = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->cookie, 7u);
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), first);
  EXPECT_GE(cache.stats().hits, 1u);

  // A higher-priority install must take effect immediately (a stale hit
  // would keep steering to cookie 7).
  sdn::FlowEntry high;
  high.priority = 9;
  high.cookie = 8;
  high.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32);
  high.actions.push_back(sdn::FlowAction::Drop());
  table.Install(high);
  const sdn::FlowEntry* after_install = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(after_install, nullptr);
  EXPECT_EQ(after_install->cookie, 8u);

  // Removing the winner falls back to the remaining entry.
  table.RemoveByCookie(8);
  const sdn::FlowEntry* after_remove = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(after_remove, nullptr);
  EXPECT_EQ(after_remove->cookie, 7u);

  // Clearing the table turns the cached positive into a miss.
  table.Clear();
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_GT(cache.stats().stale, 0u);
}

TEST(MicroflowCache, CachesNegativeVerdicts) {
  sdn::FlowTable table;  // empty: everything misses
  sdn::MicroflowCache cache;
  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1000, 2000, {});
  const auto frame = proto::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Until the table changes, the negative is served from the cache; once
  // a matching entry lands, the generation bump exposes it.
  sdn::FlowEntry any;
  any.priority = 0;
  any.cookie = 42;
  any.actions.push_back(sdn::FlowAction::Flood());
  table.Install(any);
  const sdn::FlowEntry* entry = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->cookie, 42u);
}

TEST(MicroflowCache, FlowKeyCoversAllMatchFields) {
  // Two frames differing only in L4 source port must produce different
  // keys (a shared key would let one flow's verdict answer for another).
  const Bytes a = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1000, 2000, {});
  const Bytes b = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1001, 2000, {});
  const auto fa = proto::ParseFrame(a);
  const auto fb = proto::ParseFrame(b);
  ASSERT_TRUE(fa && fb);
  EXPECT_FALSE(sdn::FlowKey::FromFrame(*fa, 0) ==
               sdn::FlowKey::FromFrame(*fb, 0));
  // Same frame on different ingress ports is also a different flow.
  EXPECT_FALSE(sdn::FlowKey::FromFrame(*fa, 0) ==
               sdn::FlowKey::FromFrame(*fa, 1));
  EXPECT_TRUE(sdn::FlowKey::FromFrame(*fa, 0) ==
              sdn::FlowKey::FromFrame(*fa, 0));
}

TEST(ParseOnce, CachedViewMatchesFreshParse) {
  auto pkt = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  const auto* first = pkt->Parsed();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->ip->src, Ipv4Address(10, 0, 0, 3));
  EXPECT_EQ(first->udp->dst_port, 5678);
  // Second call serves the identical cached object.
  EXPECT_EQ(pkt->Parsed(), first);
}

TEST(ParseOnce, PoolReuseDropsTheCachedView) {
  // The one way a packet's bytes change: the pool hands a released
  // object back out with new bytes. The old parse must not survive it.
  auto a = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  ASSERT_NE(a->Parsed(), nullptr);
  net::Packet* raw = a.get();
  a.reset();  // back to the pool's free list, parse cached
  auto b = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 9),
      Ipv4Address(10, 0, 0, 4), 4321, 80, {}));
  ASSERT_EQ(b.get(), raw);  // the same object, recycled
  const auto* frame = b->Parsed();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->ip->src, Ipv4Address(10, 0, 0, 9));
  EXPECT_EQ(frame->udp->src_port, 4321);
  EXPECT_EQ(frame->udp->dst_port, 80);
  // The view points into the recycled packet's current bytes.
  const auto* base = b->data().data();
  EXPECT_GE(frame->payload.data(), base);
  EXPECT_LE(frame->payload.data() + frame->payload.size(),
            base + b->data().size());


  // Recycled again with bytes too short to parse: malformed, not the
  // previous user's view.
  b.reset();
  auto c = net::MakePacket(Bytes{1, 2, 3});
  ASSERT_EQ(c.get(), raw);
  EXPECT_EQ(c->Parsed(), nullptr);
}

TEST(ParseOnce, ClonesReparseAgainstTheirOwnBuffer) {
  auto pkt = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  const auto* frame = pkt->Parsed();
  ASSERT_NE(frame, nullptr);
  auto clone = net::ClonePacket(*pkt);
  const auto* cloned_frame = clone->Parsed();
  ASSERT_NE(cloned_frame, nullptr);
  EXPECT_NE(cloned_frame, frame);  // distinct cached views
  // The clone's payload span must point into the clone's own buffer.
  const auto* base = clone->data().data();
  EXPECT_GE(cloned_frame->payload.data(), base);
  EXPECT_LE(cloned_frame->payload.data() + cloned_frame->payload.size(),
            base + clone->data().size());
  EXPECT_EQ(cloned_frame->ip->src, frame->ip->src);
}

TEST(PacketPool, RecyclesReleasedPackets) {
  auto& pool = net::PacketPool::Global();
  auto pkt = net::MakePacket(Bytes{1, 2, 3});
  net::Packet* raw = pkt.get();
  pkt->created_at = 42;
  const std::size_t before = pool.FreeCount();
  pkt.reset();  // releases to the pool's free list
  ASSERT_EQ(pool.FreeCount(), before + 1);
  // The next acquire reuses the released object, fully reset.
  auto reused = net::MakePacket(Bytes{9});
  EXPECT_EQ(reused.get(), raw);
  EXPECT_EQ(reused->size(), 1u);
  EXPECT_EQ(reused->created_at, 0);
}

// End-to-end: a switch forwarding by cache serves repeat traffic from the
// microflow cache and reacts immediately to FlowMods.
TEST(SwitchFastPath, CacheHitsAndFlowModInvalidation) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kDrop);
  net::Link out_link(sim);
  struct CountingSink : net::PacketSink {
    int received = 0;
    void Receive(net::PacketPtr, int) override { ++received; }
  } sink;
  const int out_port = sw.AttachLink(&out_link, 0);
  out_link.Attach(1, &sink, 0);

  sdn::FlowEntry fwd;
  fwd.priority = 5;
  fwd.cookie = 1;
  fwd.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32);
  fwd.actions.push_back(sdn::FlowAction::Output(out_port));
  sw.flow_table().Install(fwd);

  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), 4000, 5000, {});
  for (int i = 0; i < 10; ++i) {
    sw.Receive(net::MakePacket(bytes), 5);
  }
  sim.Run();
  EXPECT_EQ(sink.received, 10);
  EXPECT_GE(sw.microflow_cache().stats().hits, 9u);

  // FlowMod: higher-priority drop entry must win on the very next packet.
  sdn::FlowEntry drop;
  drop.priority = 9;
  drop.cookie = 2;
  drop.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32);
  drop.actions.push_back(sdn::FlowAction::Drop());
  sw.flow_table().Install(drop);
  const auto drops_before = sw.stats().drops;
  sw.Receive(net::MakePacket(bytes), 5);
  sim.Run();
  EXPECT_EQ(sink.received, 10);
  EXPECT_EQ(sw.stats().drops, drops_before + 1);
}

}  // namespace
}  // namespace iotsec
