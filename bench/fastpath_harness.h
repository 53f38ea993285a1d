// Shared steady-state forwarding harness for the fast-path benches.
//
// One edge switch with `rules` per-device steering entries (exact /32
// ip_dst matches, the shape the IoTSec controller installs) forwarding a
// bounded working set of `flows` exact flows out one port — the
// cache-friendly steady state every enforcement bench settles into.
// Measured end to end: per-packet allocation, parse, classification,
// action, link transmit through the event loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "proto/frame.h"
#include "sdn/switch.h"
#include "sim/simulator.h"

namespace iotsec::bench {

struct FastPathConfig {
  std::size_t rules = 512;     // installed flow entries
  std::size_t flows = 64;      // distinct flows in the working set
  std::size_t packets = 200000;
  bool microflow = true;       // exact-match cache in front of the scan
  bool pooling = true;         // pooled packet allocation
};

struct FastPathResult {
  double seconds = 0;
  double pps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
};

/// A sink that swallows delivered frames (the far end of the egress link).
struct NullSink final : net::PacketSink {
  std::uint64_t received = 0;
  void Receive(net::PacketPtr, int) override { ++received; }
};

inline FastPathResult RunFastPathWorkload(const FastPathConfig& cfg) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kDrop);
  sw.SetMicroflowEnabled(cfg.microflow);
  net::PacketPool::Global().SetEnabled(cfg.pooling);

  net::LinkConfig link_cfg;
  link_cfg.queue_limit = 4096;
  net::Link out_link(sim, link_cfg);
  NullSink sink;
  const int out_port = sw.AttachLink(&out_link, 0);
  out_link.Attach(1, &sink, 0);

  // Per-device steering entries: all equal priority, so the slow path is
  // the full priority-ordered scan down to the matching entry.
  for (std::size_t i = 0; i < cfg.rules; ++i) {
    sdn::FlowEntry entry;
    entry.priority = 100;
    entry.cookie = i;
    entry.match.ip_dst = net::Ipv4Prefix(
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xff)),
        32);
    entry.actions.push_back(sdn::FlowAction::Output(out_port));
    sw.flow_table().Install(entry);
  }

  // Working set: flows spread uniformly across the rule table, so the
  // linear scan's average depth is rules/2.
  std::vector<Bytes> working_set;
  working_set.reserve(cfg.flows);
  const std::uint8_t payload[64] = {};
  for (std::size_t f = 0; f < cfg.flows; ++f) {
    const std::size_t rule = f * cfg.rules / cfg.flows;
    working_set.push_back(proto::BuildUdpFrame(
        net::MacAddress::FromId(static_cast<std::uint32_t>(100 + f)),
        net::MacAddress::FromId(7),
        net::Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(f)),
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(rule >> 8),
                         static_cast<std::uint8_t>(rule & 0xff)),
        static_cast<std::uint16_t>(20000 + f), 80, payload));
  }

  // Warm caches (and the pool) before timing.
  for (std::size_t f = 0; f < cfg.flows; ++f) {
    sw.Receive(net::MakePacket(working_set[f]), 0);
  }
  sim.Run();
  sw.microflow_cache().ResetStats();

  constexpr std::size_t kBatch = 512;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < cfg.packets) {
    const std::size_t batch = std::min(kBatch, cfg.packets - sent);
    for (std::size_t i = 0; i < batch; ++i) {
      const Bytes& frame = working_set[(sent + i) % working_set.size()];
      sw.Receive(net::MakePacket(frame), 0);
    }
    sim.Run();  // drain the egress link's transmit events
    sent += batch;
  }
  const auto stop = std::chrono::steady_clock::now();

  // Restore the process-wide default for whoever runs next.
  net::PacketPool::Global().SetEnabled(true);

  FastPathResult result;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.pps = result.seconds > 0
                   ? static_cast<double>(cfg.packets) / result.seconds
                   : 0;
  const auto& cs = sw.microflow_cache().stats();
  result.cache_hits = cs.hits;
  result.cache_misses = cs.misses + cs.stale;
  result.cache_hit_rate = cs.HitRate();
  return result;
}

}  // namespace iotsec::bench
