// Standard µmbox element library.
//
// Elements and their config keys (Click-lite):
//
//   Counter()                     counts packets/bytes; pass-through
//   Tee(ports=N)                  copies input to N output ports
//   Discard()                     drops everything
//   Logger(prefix=...)            logs a summary line per packet
//   RateLimiter(rate_pps=R, burst=B)
//                                 token bucket; excess is dropped+alerted
//   IpFilter(allow=..., deny=..., default=allow|deny)
//                                 L3/L4 ACL; rules "prefix[:port]" joined
//                                 by '|' inside the value
//   StatefulFirewall(allow_inbound=true|false, inside=prefix)
//                                 admits outbound + replies; inbound-new
//                                 only if allow_inbound
//   SignatureMatcher(rules=builtin|<inline text>)
//                                 Snort-lite engine; block verdicts drop,
//                                 alert verdicts raise and pass
//   DnsGuard(allow_any=false, expected_clients=prefix)
//                                 blocks DNS ANY amplification probes and
//                                 queries from outside expected_clients
//   PasswordProxy(device_ip=a.b.c.d, user=U, password=P, device_user=DU,
//                 device_password=DP)
//                                 the Figure 4 gateway: re-authenticates
//                                 HTTP toward the device, rewriting valid
//                                 admin creds to the device's hardcoded
//                                 ones and answering 401 otherwise
//   ContextGate(cmd=turn_on, key=device.cam.state, equals=person_detected,
//               else=drop|alert)
//                                 the Figure 5 gate: the IoTCtl command is
//                                 allowed only while the context key has
//                                 the required value
//   AnomalyDetector(window_ms=1000, threshold=4.0)
//                                 per-source EWMA rate model; alerts on
//                                 spikes beyond threshold x baseline
//   Delay(ms=100)                 tar pit: fixed hold before forwarding
//   AuthGuard(max_failures=5, window_ms=60000, lockout_ms=600000)
//                                 watches HTTP 401s and locks out clients
//                                 that brute-force credentials
#pragma once

#include <deque>
#include <unordered_map>

#include "dataplane/element.h"
#include "net/address.h"
#include "proto/conn_track.h"
#include "proto/frame.h"
#include "sig/ruleset.h"

namespace iotsec::dataplane {

class Counter final : public Element {
 public:
  using Element::Element;
  void Push(net::PacketPtr pkt, int in_port) override;
  [[nodiscard]] std::uint64_t Packets() const { return packets_; }
  [[nodiscard]] std::uint64_t Bytes() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

class Tee final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  int ports_ = 2;
};

class Discard final : public Element {
 public:
  using Element::Element;
  void Push(net::PacketPtr pkt, int in_port) override;
};

class Logger final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  std::string prefix_ = "umbox";
};

class RateLimiter final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  double rate_pps_ = 100.0;
  double burst_ = 20.0;
  double tokens_ = 20.0;
  SimTime last_refill_ = 0;
};

class IpFilter final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  struct AclRule {
    net::Ipv4Prefix prefix;
    std::optional<std::uint16_t> port;
  };
  static bool ParseAcl(std::string_view text, std::vector<AclRule>& out,
                       std::string* error);
  [[nodiscard]] static bool RuleHits(const AclRule& rule,
                                     const proto::ParsedFrame& frame);

  std::vector<AclRule> allow_;
  std::vector<AclRule> deny_;
  bool default_allow_ = true;
};

class StatefulFirewall final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  bool allow_inbound_ = false;
  net::Ipv4Prefix inside_ = net::Ipv4Prefix::Any();
  proto::ConnectionTracker tracker_;
};

class SignatureMatcher final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

  /// Rollout fast path: swaps in an already-compiled shared ruleset with
  /// no parse/compile (pointer swap). nullptr resets to the empty set —
  /// the rollback-to-nothing case.
  void AdoptCompiled(std::shared_ptr<const sig::CompiledRuleset> compiled) {
    rules_.AdoptCompiled(std::move(compiled));
  }

 private:
  sig::RuleSet rules_;
};

class DnsGuard final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  bool allow_any_ = false;
  net::Ipv4Prefix expected_clients_ = net::Ipv4Prefix::Any();
};

class PasswordProxy final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  void Reject(const proto::ParsedFrame& frame);

  net::Ipv4Address device_ip_;
  std::string user_ = "admin";
  std::string password_;
  std::string device_user_ = "admin";
  std::string device_password_;
};

class ContextGate final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  std::optional<proto::IotCommand> cmd_;
  std::string key_;
  std::string equals_;
  bool alert_only_ = false;
};

/// Delay(ms=N) — holds every packet for a fixed simulated delay before
/// forwarding. Used as a tar pit in front of credential-guessing targets:
/// it caps the attacker's guess rate without affecting legitimate users
/// who authenticate once.
class Delay final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  SimDuration delay_ = 100 * kMillisecond;
};

/// AuthGuard(max_failures=N, window_ms=W, lockout_ms=L)
//
/// Watches HTTP 401 responses flowing back through the chain and locks
/// out clients that accumulate too many failures in a window — the
/// network-side answer to online brute force against devices that will
/// never implement lockout themselves.
class AuthGuard final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  struct ClientState {
    int failures = 0;
    SimTime window_start = 0;
    SimTime locked_until = 0;
  };
  int max_failures_ = 5;
  SimDuration window_ = kMinute;
  SimDuration lockout_ = 10 * kMinute;
  std::unordered_map<std::uint32_t, ClientState> clients_;
};

class AnomalyDetector final : public Element {
 public:
  using Element::Element;
  bool Configure(const ConfigMap& config, std::string* error) override;
  void Push(net::PacketPtr pkt, int in_port) override;

 private:
  struct SourceState {
    double ewma_rate = 0.0;   // packets per window, smoothed
    std::uint64_t window_count = 0;
    SimTime window_start = 0;
    bool warmed_up = false;
  };
  SimDuration window_ = 1000 * kMillisecond;
  double threshold_ = 4.0;
  double alpha_ = 0.3;
  std::unordered_map<std::uint32_t, SourceState> sources_;
};

}  // namespace iotsec::dataplane
