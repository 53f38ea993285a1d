#include "proto/conn_track.h"

namespace iotsec::proto {
namespace {

/// Table size above which Update sweeps out idle entries first.
constexpr std::size_t kMaxEntries = 65536;

}  // namespace

FiveTuple FiveTuple::Canonical() const {
  // Order endpoints lexicographically by (ip, port) so both directions of
  // a flow share one key.
  const bool forward =
      std::make_pair(src.value(), src_port) <=
      std::make_pair(dst.value(), dst_port);
  if (forward) return *this;
  FiveTuple flipped = *this;
  std::swap(flipped.src, flipped.dst);
  std::swap(flipped.src_port, flipped.dst_port);
  return flipped;
}

bool FiveTuple::IsForward(const FiveTuple& canonical) const {
  return src == canonical.src && src_port == canonical.src_port;
}

bool FiveTuple::FromFrame(const ParsedFrame& frame, FiveTuple& out) {
  if (!frame.ip) return false;
  if (!frame.tcp && !frame.udp) return false;
  out.src = frame.ip->src;
  out.dst = frame.ip->dst;
  out.src_port = frame.SrcPort();
  out.dst_port = frame.DstPort();
  out.protocol = frame.ip->protocol;
  return true;
}

ConnState ConnectionTracker::Update(const ParsedFrame& frame, SimTime now) {
  FiveTuple tuple;
  if (!FiveTuple::FromFrame(frame, tuple)) return ConnState::kNone;
  const FiveTuple key = tuple.Canonical();

  if (table_.size() > kMaxEntries) EvictIdle(now);

  auto it = table_.find(key);
  const bool expired =
      it != table_.end() &&
      now - it->second.last_seen > TimeoutFor(tuple.protocol);
  if (expired) {
    table_.erase(it);
    it = table_.end();
  }

  if (tuple.protocol == IpProto::kUdp) {
    Entry& e = table_[key];
    if (e.state == ConnState::kNone) {
      e.forward_is_initiator = tuple.IsForward(key);
    }
    e.state = ConnState::kEstablished;
    e.last_seen = now;
    return e.state;
  }

  // TCP path.
  const TcpHeader& tcp = *frame.tcp;
  if (it == table_.end()) {
    if (tcp.Syn() && !tcp.Ack()) {
      Entry e;
      e.state = ConnState::kSynSent;
      e.last_seen = now;
      e.forward_is_initiator = tuple.IsForward(key);
      table_[key] = e;
      return e.state;
    }
    return ConnState::kNone;  // mid-stream packet for unknown flow
  }

  Entry& e = it->second;
  e.last_seen = now;
  if (tcp.Rst()) {
    e.state = ConnState::kClosed;
  } else {
    switch (e.state) {
      case ConnState::kSynSent:
        if (tcp.Syn() && tcp.Ack()) e.state = ConnState::kSynReceived;
        break;
      case ConnState::kSynReceived:
        if (tcp.Ack() && !tcp.Syn()) e.state = ConnState::kEstablished;
        break;
      case ConnState::kEstablished:
        if (tcp.Fin()) e.state = ConnState::kFinWait;
        break;
      case ConnState::kFinWait:
        if (tcp.Fin()) e.state = ConnState::kClosed;
        break;
      case ConnState::kClosed:
      case ConnState::kNone:
        break;
    }
  }
  const ConnState result = e.state;
  if (result == ConnState::kClosed) table_.erase(it);
  return result;
}

ConnState ConnectionTracker::Lookup(const FiveTuple& tuple,
                                    SimTime now) const {
  const auto it = table_.find(tuple.Canonical());
  if (it == table_.end()) return ConnState::kNone;
  if (now - it->second.last_seen > TimeoutFor(tuple.protocol)) {
    return ConnState::kNone;
  }
  return it->second.state;
}

bool ConnectionTracker::IsReplyToTracked(const ParsedFrame& frame,
                                         SimTime now) const {
  FiveTuple tuple;
  if (!FiveTuple::FromFrame(frame, tuple)) return false;
  const FiveTuple key = tuple.Canonical();
  const auto it = table_.find(key);
  if (it == table_.end()) return false;
  if (now - it->second.last_seen > TimeoutFor(tuple.protocol)) return false;
  if (it->second.state == ConnState::kNone ||
      it->second.state == ConnState::kClosed) {
    return false;
  }
  // A reply flows opposite to the initiator's direction.
  const bool frame_is_forward = tuple.IsForward(key);
  return frame_is_forward != it->second.forward_is_initiator;
}

void ConnectionTracker::EvictIdle(SimTime now) {
  for (auto it = table_.begin(); it != table_.end();) {
    if (now - it->second.last_seen > TimeoutFor(it->first.protocol)) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace iotsec::proto
