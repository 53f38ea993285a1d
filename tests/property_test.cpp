// Cross-cutting property suites: flow-table semantics vs a reference
// implementation, connection-tracker behaviour under random traffic,
// environment determinism, and HTTP codec round-trips on random messages.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "env/dynamics.h"
#include "proto/conn_track.h"
#include "proto/http.h"
#include "sdn/flow_table.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

// ------------------------------------------------ FlowTable vs reference

/// Dumb reference: scan all entries, keep best by (priority, insertion).
struct ReferenceTable {
  struct Entry {
    sdn::FlowEntry entry;
    std::uint64_t seq;
  };
  std::vector<Entry> entries;
  std::uint64_t next_seq = 0;

  void Install(const sdn::FlowEntry& e) { entries.push_back({e, next_seq++}); }

  const sdn::FlowEntry* Lookup(const proto::ParsedFrame& frame,
                               int in_port) const {
    const Entry* best = nullptr;
    for (const auto& e : entries) {
      if (!e.entry.match.Matches(frame, in_port)) continue;
      if (best == nullptr || e.entry.priority > best->entry.priority ||
          (e.entry.priority == best->entry.priority && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best == nullptr ? nullptr : &best->entry;
  }
};

class FlowTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FlowTablePropertyTest, LookupMatchesReference) {
  Rng rng(GetParam());
  sdn::FlowTable table;
  ReferenceTable reference;

  auto random_ip = [&] {
    return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.NextBelow(8)));
  };

  for (int i = 0; i < 40; ++i) {
    sdn::FlowEntry entry;
    entry.priority = static_cast<int>(rng.NextBelow(5));
    entry.cookie = static_cast<std::uint64_t>(i);
    if (rng.NextBool(0.5)) {
      entry.match.ip_src = net::Ipv4Prefix(random_ip(), 32);
    }
    if (rng.NextBool(0.5)) {
      entry.match.ip_dst = net::Ipv4Prefix(random_ip(), 32);
    }
    if (rng.NextBool(0.3)) {
      entry.match.l4_dst = static_cast<std::uint16_t>(rng.NextBelow(4));
    }
    if (rng.NextBool(0.3)) {
      entry.match.in_port = static_cast<int>(rng.NextBelow(3));
    }
    table.Install(entry);
    reference.Install(entry);
  }

  for (int probe = 0; probe < 300; ++probe) {
    const Bytes wire = proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2), random_ip(),
        random_ip(), static_cast<std::uint16_t>(rng.NextBelow(4)),
        static_cast<std::uint16_t>(rng.NextBelow(4)), ToBytes("x"));
    const auto frame = *proto::ParseFrame(wire);
    const int in_port = static_cast<int>(rng.NextBelow(3));
    const auto* got = table.Lookup(frame, in_port);
    const auto* want = reference.Lookup(frame, in_port);
    ASSERT_EQ(got == nullptr, want == nullptr);
    if (got != nullptr) {
      EXPECT_EQ(got->cookie, want->cookie)
          << "probe " << probe << " port " << in_port;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTablePropertyTest,
                         ::testing::Values(3, 17, 77, 2024));

// ---------------------------------------- ConnectionTracker random walk

class ConnTrackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: under arbitrary interleavings of TCP segments across a few
// flows, the tracker (a) never reports established for a flow that never
// completed a handshake, and (b) IsReplyToTracked only accepts frames
// opposite to a tracked initiator.
TEST_P(ConnTrackPropertyTest, HandshakeInvariant) {
  Rng rng(GetParam());
  proto::ConnectionTracker tracker;
  struct Flow {
    Ipv4Address a{10, 0, 0, 1};
    Ipv4Address b{10, 0, 0, 2};
    std::uint16_t pa;
    std::uint16_t pb;
    bool syn_sent = false;
    bool synack_sent = false;
    bool ack_sent = false;
  };
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) {
    Flow f;
    f.pa = static_cast<std::uint16_t>(1000 + i);
    f.pb = 80;
    flows.push_back(f);
  }

  SimTime now = 0;
  for (int step = 0; step < 400; ++step) {
    now += kMillisecond;
    Flow& f = flows[rng.NextBelow(flows.size())];
    const int action = static_cast<int>(rng.NextBelow(4));
    proto::TcpHeader tcp;
    Ipv4Address src = f.a;
    Ipv4Address dst = f.b;
    tcp.src_port = f.pa;
    tcp.dst_port = f.pb;
    switch (action) {
      case 0:
        tcp.flags = proto::TcpFlags::kSyn;
        f.syn_sent = true;
        break;
      case 1:
        tcp.flags = proto::TcpFlags::kSyn | proto::TcpFlags::kAck;
        std::swap(src, dst);
        std::swap(tcp.src_port, tcp.dst_port);
        if (f.syn_sent) f.synack_sent = true;
        break;
      case 2:
        tcp.flags = proto::TcpFlags::kAck;
        if (f.synack_sent) f.ack_sent = true;
        break;
      case 3:
        tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
        break;
    }
    const Bytes wire = proto::BuildTcpFrame(MacAddress::FromId(1),
                                            MacAddress::FromId(2), src, dst,
                                            tcp, {});
    const auto frame = *proto::ParseFrame(wire);
    const auto state = tracker.Update(frame, now);
    if (state == proto::ConnState::kEstablished) {
      EXPECT_TRUE(f.syn_sent && f.synack_sent)
          << "established without a handshake at step " << step;
    }
  }

  // Reply acceptance: only for flows with any tracked state, and only in
  // the b->a direction.
  for (const auto& f : flows) {
    proto::TcpHeader reply;
    reply.src_port = f.pb;
    reply.dst_port = f.pa;
    reply.flags = proto::TcpFlags::kAck;
    const Bytes wire = proto::BuildTcpFrame(
        MacAddress::FromId(2), MacAddress::FromId(1), f.b, f.a, reply, {});
    const auto frame = *proto::ParseFrame(wire);
    if (!f.syn_sent) {
      EXPECT_FALSE(tracker.IsReplyToTracked(frame, now));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnTrackPropertyTest,
                         ::testing::Values(5, 55, 555));

// ------------------------------------------------ Environment determinism

TEST(EnvDeterminismTest, IdenticalRunsProduceIdenticalTrajectories) {
  auto run = [] {
    auto env = env::MakeSmartHomeEnvironment();
    sim::Simulator sim;
    env->AttachTo(sim);
    env->SetBool("oven_power", true, 0);
    std::vector<double> trajectory;
    for (int i = 0; i < 60; ++i) {
      sim.RunFor(kSecond);
      trajectory.push_back(env->Value("temperature"));
    }
    return trajectory;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "step " << i;
  }
  // And the trajectory is monotone while the oven heats.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]);
  }
}

// -------------------------------------------------- HTTP random messages

class HttpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpPropertyTest, RandomRequestsRoundTrip) {
  Rng rng(GetParam());
  const std::vector<std::string> methods = {"GET", "POST", "PUT", "DELETE"};
  auto token = [&](std::size_t max_len) {
    const auto len = 1 + rng.NextBelow(max_len);
    std::string out;
    for (std::size_t i = 0; i < len; ++i) {
      out += static_cast<char>('a' + rng.NextBelow(26));
    }
    return out;
  };
  for (int round = 0; round < 50; ++round) {
    proto::HttpRequest req;
    req.method = methods[rng.NextBelow(methods.size())];
    req.path = "/";
    req.path += token(12);
    const auto n_headers = rng.NextBelow(5);
    for (std::size_t h = 0; h < n_headers; ++h) {
      req.SetHeader("X-" + token(8), token(16));
    }
    if (rng.NextBool(0.5)) req.body = token(64);
    auto parsed = proto::HttpRequest::Parse(req.Serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->method, req.method);
    EXPECT_EQ(parsed->path, req.path);
    EXPECT_EQ(parsed->body, req.body);
    EXPECT_EQ(parsed->headers.size(),
              req.headers.size() + (req.body.empty() ? 0 : 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpPropertyTest,
                         ::testing::Values(2, 22, 222));

}  // namespace
}  // namespace iotsec
