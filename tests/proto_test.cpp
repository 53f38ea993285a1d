// Unit + property tests for the protocol codecs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/dns.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "proto/tunnel.h"

namespace iotsec::proto {
namespace {

using net::Ipv4Address;
using net::MacAddress;

TEST(EthernetTest, RoundTrip) {
  EthernetHeader h;
  h.src = MacAddress::FromId(7);
  h.dst = MacAddress::FromId(9);
  h.ethertype = EtherType::kIpv4;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);
  ByteReader r(buf);
  auto parsed = EthernetHeader::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->ethertype, h.ethertype);
}

TEST(Ipv4Test, RoundTripAndChecksum) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.protocol = IpProto::kTcp;
  h.total_length = 40;
  h.ttl = 17;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  ByteReader r(buf);
  auto parsed = Ipv4Header::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->protocol, IpProto::kTcp);
}

TEST(Ipv4Test, CorruptChecksumRejected) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.total_length = 20;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  buf[12] ^= 0xff;  // flip a source-address byte
  ByteReader r(buf);
  EXPECT_FALSE(Ipv4Header::Parse(r).has_value());
}

TEST(AddressTest, ParseFormats) {
  auto ip = Ipv4Address::Parse("192.168.1.77");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->ToString(), "192.168.1.77");
  EXPECT_FALSE(Ipv4Address::Parse("192.168.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("192.168.1.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());

  auto mac = MacAddress::Parse("02:00:00:00:00:2a");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddress::FromId(42));
  EXPECT_FALSE(MacAddress::Parse("02:00:00:00:00").has_value());
  EXPECT_FALSE(MacAddress::Parse("zz:00:00:00:00:00").has_value());
}

TEST(AddressTest, PrefixContains) {
  auto p = net::Ipv4Prefix::Parse("10.1.2.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Contains(Ipv4Address(10, 1, 2, 200)));
  EXPECT_FALSE(p->Contains(Ipv4Address(10, 1, 3, 1)));
  EXPECT_TRUE(net::Ipv4Prefix::Any().Contains(Ipv4Address(1, 2, 3, 4)));
  auto host = net::Ipv4Prefix::Parse("10.1.2.3");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->Length(), 32);
  EXPECT_TRUE(host->Contains(Ipv4Address(10, 1, 2, 3)));
  EXPECT_FALSE(host->Contains(Ipv4Address(10, 1, 2, 4)));
}

TEST(FrameTest, UdpRoundTrip) {
  const std::string payload = "hello iot";
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              4444, kIotCtlPort, ToBytes(payload));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->HasUdp());
  EXPECT_EQ(parsed->udp->src_port, 4444);
  EXPECT_EQ(parsed->udp->dst_port, kIotCtlPort);
  EXPECT_EQ(ToString(parsed->payload), payload);
}

TEST(FrameTest, TcpRoundTrip) {
  TcpHeader tcp;
  tcp.src_port = 5555;
  tcp.dst_port = 80;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags = TcpFlags::kPsh | TcpFlags::kAck;
  Bytes frame = BuildTcpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              tcp, ToBytes("GET / HTTP/1.1\r\n\r\n"));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->HasTcp());
  EXPECT_EQ(parsed->tcp->seq, 1000u);
  EXPECT_TRUE(parsed->tcp->Psh());
  EXPECT_TRUE(parsed->tcp->Ack());
  EXPECT_FALSE(parsed->tcp->Syn());
}

TEST(FrameTest, ReplacePayloadPreservesHeaders) {
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1234, 5678, ToBytes("short"));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  Bytes rewritten = ReplacePayload(*parsed, ToBytes("a much longer payload"));
  auto reparsed = ParseFrame(rewritten);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->udp->src_port, 1234);
  EXPECT_EQ(reparsed->ip->src, parsed->ip->src);
  EXPECT_EQ(ToString(reparsed->payload), "a much longer payload");
}

TEST(HttpTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/admin/config";
  req.SetHeader("Host", "camera.local");
  req.SetHeader("Authorization", BasicAuthValue("admin", "admin"));
  req.body = "mode=night";
  Bytes wire = req.Serialize();
  auto parsed = HttpRequest::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/admin/config");
  EXPECT_EQ(parsed->body, "mode=night");
  auto auth = parsed->Header("authorization");
  ASSERT_TRUE(auth.has_value());
  auto creds = ParseBasicAuth(*auth);
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->first, "admin");
  EXPECT_EQ(creds->second, "admin");
}

TEST(HttpTest, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 401;
  resp.reason = "Unauthorized";
  resp.SetHeader("WWW-Authenticate", "Basic realm=\"cam\"");
  resp.body = "denied";
  auto parsed = HttpResponse::Parse(resp.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 401);
  EXPECT_EQ(parsed->reason, "Unauthorized");
  EXPECT_EQ(parsed->body, "denied");
}

TEST(HttpTest, MalformedRejected) {
  EXPECT_FALSE(HttpRequest::Parse(ToBytes("no crlf here")).has_value());
  EXPECT_FALSE(HttpRequest::Parse(ToBytes("GETONLY\r\n\r\n")).has_value());
  EXPECT_FALSE(HttpResponse::Parse(ToBytes("HTTP/1.1 banana\r\n\r\n")).has_value());
}

TEST(Base64Test, KnownVectors) {
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(Base64Decode("Zm9vYmFy").value(), "foobar");
  EXPECT_FALSE(Base64Decode("Zm9vYmF").has_value());   // bad length
  EXPECT_FALSE(Base64Decode("Zm=vYmFy").has_value());  // data after pad
}

class Base64PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Base64PropertyTest, EncodeDecodeRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const auto len = static_cast<std::size_t>(rng.NextBelow(128));
    std::string raw;
    for (std::size_t i = 0; i < len; ++i) {
      raw += static_cast<char>(rng.NextBelow(256));
    }
    auto decoded = Base64Decode(Base64Encode(raw));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

TEST(DnsTest, QueryResponseRoundTrip) {
  DnsMessage query;
  query.id = 0x1234;
  query.questions.push_back({"pool.ntp.org", DnsType::kAny});
  auto parsed_q = DnsMessage::Parse(query.Serialize());
  ASSERT_TRUE(parsed_q.has_value());
  EXPECT_FALSE(parsed_q->is_response);
  ASSERT_EQ(parsed_q->questions.size(), 1u);
  EXPECT_EQ(parsed_q->questions[0].name, "pool.ntp.org");

  DnsMessage resp;
  resp.id = 0x1234;
  resp.is_response = true;
  resp.recursion_available = true;
  resp.questions = query.questions;
  for (int i = 0; i < 10; ++i) {
    resp.answers.push_back(
        DnsRecord::MakeA("pool.ntp.org", net::Ipv4Address(1, 2, 3, i)));
    resp.answers.push_back(DnsRecord::MakeTxt(
        "pool.ntp.org", "padding-record-to-amplify-the-response-" +
                            std::to_string(i)));
  }
  Bytes wire = resp.Serialize();
  auto parsed_r = DnsMessage::Parse(wire);
  ASSERT_TRUE(parsed_r.has_value());
  EXPECT_TRUE(parsed_r->is_response);
  EXPECT_EQ(parsed_r->answers.size(), 20u);
  // Amplification: the response must be much larger than the query.
  EXPECT_GT(wire.size(), query.Serialize().size() * 5);
}

TEST(DnsTest, MalformedRejected) {
  EXPECT_FALSE(DnsMessage::Parse(ToBytes("xx")).has_value());
  Bytes truncated = []{
    DnsMessage q;
    q.questions.push_back({"a.b", DnsType::kA});
    return q.Serialize();
  }();
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DnsMessage::Parse(truncated).has_value());
}

TEST(IotCtlTest, CommandRoundTrip) {
  IotCtlMessage msg;
  msg.type = IotMsgType::kCommand;
  msg.command = IotCommand::kTurnOn;
  msg.seq = 42;
  msg.SetAuthToken("wemo-secret");
  msg.Add(IotTag::kArgKey, "brightness");
  msg.Add(IotTag::kArgValue, "80");
  auto parsed = IotCtlMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->command, IotCommand::kTurnOn);
  EXPECT_EQ(parsed->seq, 42);
  EXPECT_FALSE(parsed->backdoor);
  EXPECT_EQ(parsed->AuthToken().value(), "wemo-secret");
  EXPECT_EQ(parsed->Find(IotTag::kArgKey).value(), "brightness");
}

TEST(IotCtlTest, BackdoorFlagSurvives) {
  IotCtlMessage msg;
  msg.command = IotCommand::kOpen;
  msg.backdoor = true;
  auto parsed = IotCtlMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->backdoor);
}

TEST(IotCtlTest, RejectsWrongMagic) {
  IotCtlMessage msg;
  Bytes wire = msg.Serialize();
  wire[0] = 0x00;
  EXPECT_FALSE(IotCtlMessage::Parse(wire).has_value());
}

TEST(TunnelTest, EncapDecapRoundTrip) {
  Bytes inner = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1111, 2222, ToBytes("inner"));
  TunnelHeader th;
  th.vni = 77;
  th.direction = TunnelDirection::kToUmbox;
  th.origin_switch = 3;
  Bytes outer = Encapsulate(MacAddress::FromId(100), MacAddress::FromId(200),
                            th, inner);
  auto decap = Decapsulate(outer);
  ASSERT_TRUE(decap.has_value());
  EXPECT_EQ(decap->header.vni, 77u);
  EXPECT_EQ(decap->header.origin_switch, 3u);
  EXPECT_EQ(decap->inner, inner);
  // The inner frame is still parseable.
  auto parsed = ParseFrame(decap->inner);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(ToString(parsed->payload), "inner");
}

TEST(TunnelTest, UnknownDirectionRejected) {
  // The direction byte is 0 (to µmbox) or 1 (from µmbox); anything else
  // is not a valid tunnel frame.
  TunnelHeader th;
  th.direction = TunnelDirection::kFromUmbox;
  Bytes outer = Encapsulate(MacAddress::FromId(100), MacAddress::FromId(200),
                            th, ToBytes("inner"));
  ASSERT_TRUE(Decapsulate(outer).has_value());
  // Byte layout: 14-byte Ethernet header, 4-byte VNI, then direction.
  constexpr std::size_t kDirectionOffset = 14 + 4;
  for (const std::uint8_t bad : {2, 0x7f, 0xff}) {
    outer[kDirectionOffset] = bad;
    EXPECT_FALSE(Decapsulate(outer).has_value()) << int{bad};
  }
}

TEST(TunnelTest, NonTunnelFrameRejected) {
  Bytes plain = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1, 2, ToBytes("x"));
  EXPECT_FALSE(Decapsulate(plain).has_value());
}

class FrameFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: ParseFrame never crashes or reads out of bounds on random
// mutations of a valid frame.
TEST_P(FrameFuzzTest, ParserRobustToMutation) {
  Rng rng(GetParam());
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1234, 5678, ToBytes("payload-bytes"));
  for (int iter = 0; iter < 200; ++iter) {
    Bytes mutated = frame;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    if (rng.NextBool(0.3)) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    (void)ParseFrame(mutated);  // must not crash
    (void)Decapsulate(mutated);
    (void)IotCtlMessage::Parse(mutated);
    (void)DnsMessage::Parse(mutated);
    (void)HttpRequest::Parse(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace iotsec::proto
