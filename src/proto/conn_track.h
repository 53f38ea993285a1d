// TCP/UDP connection tracking for the stateful-firewall µmbox element.
//
// Tracks 5-tuples through a simplified TCP state machine plus a pseudo
// state for UDP "connections" (request seen → replies allowed until idle
// timeout). This is the `State, Match → Action` strawman of §3.1 made
// concrete, and the building block the paper's enforcement layer still
// needs for conventional protections.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.h"
#include "net/address.h"
#include "proto/frame.h"

namespace iotsec::proto {

struct FiveTuple {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProto protocol = IpProto::kTcp;

  /// Canonical direction-insensitive key: orders the endpoints so both
  /// directions of a flow map to the same entry.
  [[nodiscard]] FiveTuple Canonical() const;
  [[nodiscard]] bool IsForward(const FiveTuple& canonical) const;

  bool operator==(const FiveTuple&) const = default;

  /// Extracts the 5-tuple from a parsed frame; false if not IP+L4.
  static bool FromFrame(const ParsedFrame& frame, FiveTuple& out);
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    std::size_t h = std::hash<std::uint32_t>{}(t.src.value());
    h = h * 1000003 ^ std::hash<std::uint32_t>{}(t.dst.value());
    h = h * 1000003 ^ t.src_port;
    h = h * 1000003 ^ t.dst_port;
    h = h * 1000003 ^ static_cast<std::uint8_t>(t.protocol);
    return h;
  }
};

enum class ConnState : std::uint8_t {
  kNone = 0,      // unknown flow
  kSynSent,       // initiator SYN seen
  kSynReceived,   // responder SYN-ACK seen
  kEstablished,   // handshake complete (or UDP exchange underway)
  kFinWait,       // one side has sent FIN
  kClosed,        // both FINs or RST seen
};

/// Idle time after which a flow is forgotten, per transport.
inline constexpr SimDuration kTcpIdleTimeout = 5 * kMinute;
inline constexpr SimDuration kUdpIdleTimeout = 30 * kSecond;

class ConnectionTracker {
 public:
  /// Advances the flow's state machine with this frame and returns the
  /// state *after* the update. `now` drives idle eviction.
  ConnState Update(const ParsedFrame& frame, SimTime now);

  /// Current state without mutating (kNone if untracked or idle-expired).
  [[nodiscard]] ConnState Lookup(const FiveTuple& tuple, SimTime now) const;

  /// True if this frame belongs to a flow that was initiated from the
  /// direction the firewall trusts (i.e. the canonical forward side).
  /// Stateful firewalls use this to admit only reply traffic.
  [[nodiscard]] bool IsReplyToTracked(const ParsedFrame& frame,
                                      SimTime now) const;

  [[nodiscard]] std::size_t ActiveConnections() const {
    return table_.size();
  }

  /// Removes idle-expired entries (called opportunistically by Update).
  void EvictIdle(SimTime now);

 private:
  struct Entry {
    ConnState state = ConnState::kNone;
    SimTime last_seen = 0;
    bool forward_is_initiator = true;
  };

  [[nodiscard]] static SimDuration TimeoutFor(IpProto proto) {
    return proto == IpProto::kTcp ? kTcpIdleTimeout : kUdpIdleTimeout;
  }

  std::unordered_map<FiveTuple, Entry, FiveTupleHash> table_;
};

}  // namespace iotsec::proto
