// Security elements: the actual defenses the IoTSec controller composes
// into per-device µmbox chains.
#include "common/strings.h"
#include "dataplane/elements.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "sig/corpus.h"

namespace iotsec::dataplane {

// ------------------------------------------------------ StatefulFirewall

bool StatefulFirewall::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("allow_inbound"); it != config.end()) {
    if (it->second == "true") allow_inbound_ = true;
    else if (it->second == "false") allow_inbound_ = false;
    else {
      if (error) *error = "StatefulFirewall: allow_inbound must be true|false";
      return false;
    }
  }
  if (const auto it = config.find("inside"); it != config.end()) {
    auto p = net::Ipv4Prefix::Parse(it->second);
    if (!p) {
      if (error) *error = "StatefulFirewall: bad inside prefix";
      return false;
    }
    inside_ = *p;
  }
  return true;
}

void StatefulFirewall::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip || (!frame->tcp && !frame->udp)) {
    Output(std::move(pkt));
    return;
  }
  const SimTime now = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;
  const bool outbound = inside_.Contains(frame->ip->src);
  if (outbound || allow_inbound_) {
    tracker_.Update(*frame, now);
    Output(std::move(pkt));
    return;
  }
  // Inbound: only replies to connections initiated from inside pass.
  if (tracker_.IsReplyToTracked(*frame, now)) {
    tracker_.Update(*frame, now);
    Output(std::move(pkt));
    return;
  }
  Drop(pkt);
  RaiseAlert("firewall",
             "unsolicited inbound from " + frame->ip->src.ToString());
}

// ------------------------------------------------------ SignatureMatcher

// Reset pays the compile here, off the packet path. The shared cache makes
// it a pointer grab whenever any other µmbox already carries the same
// ruleset — a crowd push to M same-SKU µmboxes compiles once.
bool SignatureMatcher::Configure(const ConfigMap& config, std::string* error) {
  const auto it = config.find("rules");
  if (it == config.end() || it->second == "builtin") {
    rules_.Reset(sig::BuiltinRules());
  } else {
    std::vector<std::string> errors;
    auto parsed = sig::ParseRules(it->second, &errors);
    if (!errors.empty()) {
      if (error) *error = "SignatureMatcher: " + errors.front();
      return false;
    }
    rules_.Reset(parsed);
  }
  return true;
}

void SignatureMatcher::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame) {
    Output(std::move(pkt));
    return;
  }
  const auto verdict = rules_.Evaluate(*frame);
  if (verdict.Matched()) {
    std::string detail = "sids:";
    for (auto sid : verdict.matched_sids) {
      detail += ' ';
      detail += std::to_string(sid);
    }
    RaiseAlert("signature", detail, verdict.matched_sids);
  }
  if (verdict.ShouldBlock()) {
    Drop(pkt);
    return;
  }
  Output(std::move(pkt));
}

// -------------------------------------------------------------- DnsGuard

bool DnsGuard::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("allow_any"); it != config.end()) {
    allow_any_ = it->second == "true";
  }
  if (const auto it = config.find("expected_clients"); it != config.end()) {
    auto p = net::Ipv4Prefix::Parse(it->second);
    if (!p) {
      if (error) *error = "DnsGuard: bad expected_clients prefix";
      return false;
    }
    expected_clients_ = *p;
  }
  return true;
}

void DnsGuard::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->udp || frame->udp->dst_port != proto::kDnsPort) {
    Output(std::move(pkt));
    return;
  }
  auto query = proto::DnsMessage::Parse(frame->payload);
  if (!query || query->is_response) {
    Output(std::move(pkt));
    return;
  }
  // Spoofed-source / off-LAN clients: the resolver should never serve
  // them. This is what actually kills reflection attacks.
  if (!expected_clients_.Contains(frame->ip->src)) {
    Drop(pkt);
    RaiseAlert("dns", "query from unexpected client " +
                          frame->ip->src.ToString());
    return;
  }
  if (!allow_any_) {
    for (const auto& q : query->questions) {
      if (q.type == proto::DnsType::kAny) {
        Drop(pkt);
        RaiseAlert("dns", "ANY amplification probe for " + q.name);
        return;
      }
    }
  }
  Output(std::move(pkt));
}

// --------------------------------------------------------- PasswordProxy

bool PasswordProxy::Configure(const ConfigMap& config, std::string* error) {
  auto need = [&](const char* key, std::string& out) {
    const auto it = config.find(key);
    if (it == config.end()) {
      if (error) {
        *error = std::string("PasswordProxy: missing required key ") + key;
      }
      return false;
    }
    out = it->second;
    return true;
  };
  std::string ip_text;
  if (!need("device_ip", ip_text)) return false;
  auto ip = net::Ipv4Address::Parse(ip_text);
  if (!ip) {
    if (error) *error = "PasswordProxy: bad device_ip";
    return false;
  }
  device_ip_ = *ip;
  if (!need("password", password_)) return false;
  if (!need("device_password", device_password_)) return false;
  if (const auto it = config.find("user"); it != config.end()) {
    user_ = it->second;
  }
  if (const auto it = config.find("device_user"); it != config.end()) {
    device_user_ = it->second;
  }
  return true;
}

void PasswordProxy::Reject(const proto::ParsedFrame& frame) {
  proto::HttpResponse resp;
  resp.status = 401;
  resp.reason = "Unauthorized";
  resp.SetHeader("WWW-Authenticate", "Basic realm=\"iotsec-proxy\"");
  resp.body = "IoTSec: management access requires the administrator "
              "credential";
  // Craft the reply with src/dst swapped; it egresses like any other
  // frame and the switch returns it to the requester.
  proto::TcpHeader tcp;
  tcp.src_port = frame.tcp->dst_port;
  tcp.dst_port = frame.tcp->src_port;
  tcp.seq = frame.tcp->ack;
  tcp.ack =
      frame.tcp->seq + static_cast<std::uint32_t>(frame.payload.size());
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  Bytes wire =
      proto::BuildTcpFrame(frame.eth.dst, frame.eth.src, *&device_ip_,
                           frame.ip->src, tcp, resp.Serialize());
  Output(net::MakePacket(std::move(wire)));
}

void PasswordProxy::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  // Only HTTP *toward the protected device* is interposed.
  if (!frame || !frame->ip || frame->ip->dst != device_ip_ || !frame->tcp ||
      frame->payload.empty()) {
    Output(std::move(pkt));
    return;
  }
  auto req = proto::HttpRequest::Parse(frame->payload);
  if (!req) {
    Output(std::move(pkt));
    return;
  }
  const auto auth = req->Header("Authorization");
  const auto creds = auth ? proto::ParseBasicAuth(*auth) : std::nullopt;
  if (!creds || creds->first != user_ || creds->second != password_) {
    Drop(pkt);
    RaiseAlert("auth", "rejected management access from " +
                           frame->ip->src.ToString());
    Reject(*frame);
    return;
  }
  // Authenticated against the *administrator's* credential: rewrite the
  // header to the device's hardcoded credential so the unfixable device
  // still accepts it ("patching" the password at the network layer).
  req->SetHeader("Authorization",
                 proto::BasicAuthValue(device_user_, device_password_));
  Bytes rewritten = proto::ReplacePayload(*frame, req->Serialize());
  auto out = net::MakePacket(std::move(rewritten));
  out->created_at = pkt->created_at;
  Output(std::move(out));
}

// ----------------------------------------------------------- ContextGate

bool ContextGate::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("cmd"); it != config.end()) {
    using proto::IotCommand;
    cmd_.reset();
    for (int i = 0; i <= static_cast<int>(IotCommand::kReboot); ++i) {
      if (proto::CommandName(static_cast<IotCommand>(i)) == it->second) {
        cmd_ = static_cast<IotCommand>(i);
      }
    }
    if (!cmd_) {
      if (error) *error = "ContextGate: unknown cmd " + it->second;
      return false;
    }
  }
  const auto key = config.find("key");
  const auto equals = config.find("equals");
  if (key == config.end() || equals == config.end()) {
    if (error) *error = "ContextGate: key and equals are required";
    return false;
  }
  key_ = key->second;
  equals_ = equals->second;
  if (const auto it = config.find("else"); it != config.end()) {
    if (it->second == "alert") alert_only_ = true;
    else if (it->second == "drop") alert_only_ = false;
    else {
      if (error) *error = "ContextGate: else must be drop|alert";
      return false;
    }
  }
  return true;
}

void ContextGate::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  // Port-agnostic: commands delivered on non-standard flows (e.g. as
  // replies on a cloud keepalive) must not slip past the gate, so the
  // classifier is the IoTCtl magic, not the port number.
  if (!frame || !frame->udp) {
    Output(std::move(pkt));
    return;
  }
  auto msg = proto::IotCtlMessage::Parse(frame->payload);
  if (!msg || msg->type != proto::IotMsgType::kCommand) {
    Output(std::move(pkt));
    return;
  }
  if (cmd_ && msg->command != *cmd_) {
    Output(std::move(pkt));
    return;
  }
  const auto value =
      ctx_.context != nullptr ? ctx_.context->Get(key_) : std::nullopt;
  if (value && *value == equals_) {
    Output(std::move(pkt));
    return;
  }
  RaiseAlert("blocked",
             std::string(proto::CommandName(msg->command)) + " while " +
                 key_ + "=" + (value ? *value : "<unknown>") +
                 " (requires " + equals_ + ")");
  if (alert_only_) {
    Output(std::move(pkt));
  } else {
    Drop(pkt);
  }
}

// ----------------------------------------------------------------- Delay

bool Delay::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("ms"); it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v)) {
      if (error) *error = "Delay: bad ms";
      return false;
    }
    delay_ = v * kMillisecond;
  }
  return true;
}

void Delay::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  if (ctx_.sim == nullptr) {
    Output(std::move(pkt));
    return;
  }
  ctx_.sim->After(delay_, [this, pkt = std::move(pkt)]() mutable {
    Output(std::move(pkt));
  });
}

// ------------------------------------------------------------- AuthGuard

bool AuthGuard::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("max_failures"); it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v) || v == 0) {
      if (error) *error = "AuthGuard: bad max_failures";
      return false;
    }
    max_failures_ = static_cast<int>(v);
  }
  if (const auto it = config.find("window_ms"); it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v) || v == 0) {
      if (error) *error = "AuthGuard: bad window_ms";
      return false;
    }
    window_ = v * kMillisecond;
  }
  if (const auto it = config.find("lockout_ms"); it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v) || v == 0) {
      if (error) *error = "AuthGuard: bad lockout_ms";
      return false;
    }
    lockout_ = v * kMillisecond;
  }
  return true;
}

void AuthGuard::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip || !frame->tcp) {
    Output(std::move(pkt));
    return;
  }
  const SimTime now = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;

  // Responses carry the verdicts: a 401 charges the *destination* (the
  // client that guessed wrong).
  if (!frame->payload.empty()) {
    if (auto resp = proto::HttpResponse::Parse(frame->payload)) {
      if (resp->status == 401) {
        ClientState& st = clients_[frame->ip->dst.value()];
        if (now - st.window_start > window_) {
          st.window_start = now;
          st.failures = 0;
        }
        if (++st.failures >= max_failures_ &&
            st.locked_until < now + lockout_) {
          st.locked_until = now + lockout_;
          RaiseAlert("auth",
                     "lockout for " + frame->ip->dst.ToString() + " after " +
                         std::to_string(st.failures) + " failures");
        }
      }
      Output(std::move(pkt));
      return;
    }
    // Requests from locked-out clients die here.
    if (proto::HttpRequest::Parse(frame->payload)) {
      const auto it = clients_.find(frame->ip->src.value());
      if (it != clients_.end() && it->second.locked_until > now) {
        Drop(pkt);
        return;
      }
    }
  }
  Output(std::move(pkt));
}

// ------------------------------------------------------- AnomalyDetector

bool AnomalyDetector::Configure(const ConfigMap& config, std::string* error) {
  if (const auto it = config.find("window_ms"); it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v) || v == 0) {
      if (error) *error = "AnomalyDetector: bad window_ms";
      return false;
    }
    window_ = v * kMillisecond;
  }
  if (const auto it = config.find("threshold"); it != config.end()) {
    try {
      threshold_ = std::stod(it->second);
    } catch (const std::exception&) {
      if (error) *error = "AnomalyDetector: bad threshold";
      return false;
    }
  }
  return true;
}

void AnomalyDetector::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip) {
    Output(std::move(pkt));
    return;
  }
  const SimTime now = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;
  SourceState& st = sources_[frame->ip->src.value()];
  if (st.window_start == 0) st.window_start = now;
  while (now - st.window_start >= window_) {
    // Close the window and fold it into the EWMA baseline.
    const auto count = static_cast<double>(st.window_count);
    if (st.warmed_up && st.ewma_rate > 0.5 &&
        count > threshold_ * st.ewma_rate) {
      RaiseAlert("anomaly", frame->ip->src.ToString() + " rate " +
                                std::to_string(count) + " vs baseline " +
                                std::to_string(st.ewma_rate));
    }
    st.ewma_rate = st.warmed_up
                       ? alpha_ * count + (1 - alpha_) * st.ewma_rate
                       : count;
    st.warmed_up = true;
    st.window_count = 0;
    st.window_start += window_;
  }
  ++st.window_count;
  Output(std::move(pkt));
}

}  // namespace iotsec::dataplane
