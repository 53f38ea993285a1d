// The unit of data exchanged on the simulated network.
//
// A Packet owns its raw bytes (the serialized Ethernet frame) plus
// simulation metadata: where it entered the network, creation time, and a
// trace of the elements it traversed (used by tests and the enforcement
// benches to verify steering).
//
// Fast-path machinery (see DESIGN.md §3, "fast path"):
//   * parse-once headers — `Parsed()` decodes the frame lazily and caches
//     the `ParsedFrame` view on the packet, so the switch, tunnel
//     encap/decap and every µmbox element share one parse instead of
//     re-decoding the same bytes at each hop. Mutating the bytes through
//     `MutableData()`/`SetData()` invalidates the cached view.
//   * pooled allocation — `PacketPool` recycles Packet objects (and the
//     heap capacity of their byte/trace vectors) through a free list;
//     `MakePacket`/`ClonePacket` draw from the global pool.
//   * gated tracing — per-hop trace appends are test-only machinery; they
//     compile to a single predictable branch when disabled via
//     `SetPacketTracing(false)` (benches) or IOTSEC_NO_PACKET_TRACE.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "obs/obs.h"
#include "proto/frame.h"

namespace iotsec::net {

/// Globally enables/disables per-hop packet traces. Default: enabled
/// (tests rely on traces); benches disable it to measure the real path.
void SetPacketTracing(bool enabled);

class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes data) : data_(std::move(data)) {}

  // The cached ParsedFrame holds spans into data_, so copies must
  // re-parse against their own buffer rather than inherit the view.
  Packet(const Packet& other)
      : created_at(other.created_at),
        ingress_port(other.ingress_port),
        attributed_device(other.attributed_device),
        data_(other.data_),
        trace_(other.trace_) {}
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      created_at = other.created_at;
      ingress_port = other.ingress_port;
      attributed_device = other.attributed_device;
      data_ = other.data_;
      trace_ = other.trace_;
      InvalidateParse();
    }
    return *this;
  }
  Packet(Packet&&) = delete;
  Packet& operator=(Packet&&) = delete;

  [[nodiscard]] const Bytes& data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Mutable access to the raw bytes; invalidates the cached parse.
  [[nodiscard]] Bytes& MutableData() {
    InvalidateParse();
    return data_;
  }

  /// Replaces the raw bytes; invalidates the cached parse.
  void SetData(Bytes data) {
    data_ = std::move(data);
    InvalidateParse();
  }

  /// Parse-once header view: decodes the frame on first call and serves
  /// the cached view afterwards. Returns nullptr for malformed frames
  /// (same contract as proto::ParseFrame returning nullopt).
  [[nodiscard]] const proto::ParsedFrame* Parsed() const {
    if (!parse_cached_) {
      parsed_ = proto::ParseFrame(data_);
      parse_cached_ = true;
      obs::M().fastpath_parse_full->Inc();
    } else {
      obs::M().fastpath_parse_cached->Inc();
    }
    return parsed_ ? &*parsed_ : nullptr;
  }

  /// Drops the cached header view (called automatically on mutation).
  void InvalidateParse() const {
    parsed_.reset();
    parse_cached_ = false;
  }

  SimTime created_at = 0;
  /// Port index on the node currently holding the packet.
  int ingress_port = -1;
  /// Device the packet is attributed to (set by the edge switch when the
  /// source is a known device); kInvalidDevice otherwise.
  DeviceId attributed_device = kInvalidDevice;

  [[nodiscard]] static bool TracingEnabled() {
#ifdef IOTSEC_NO_PACKET_TRACE
    return false;
#else
    return tracing_enabled_;
#endif
  }

  /// Appends a hop label ("umbox:fw-7", "switch:2") to the trace.
  /// No-op (and no allocation in trace_) when tracing is disabled;
  /// call sites that build expensive labels should check TracingEnabled()
  /// first so the label itself is never constructed.
  void Trace(std::string hop) {
    if (TracingEnabled()) trace_.push_back(std::move(hop));
  }

  /// Copies another packet's hop trace (encap/decap boundaries splice
  /// traces across the tunnel). Gated like Trace().
  void CopyTraceFrom(const Packet& other) {
    if (TracingEnabled()) {
      trace_.insert(trace_.end(), other.trace_.begin(), other.trace_.end());
    }
  }

  [[nodiscard]] const std::vector<std::string>& trace() const {
    return trace_;
  }

 private:
  friend class PacketPool;
  friend void SetPacketTracing(bool);

  /// Resets the packet to a blank state, keeping heap capacity so the
  /// pool's next user skips the allocations.
  void ResetForReuse() {
    data_.clear();
    trace_.clear();
    InvalidateParse();
    created_at = 0;
    ingress_port = -1;
    attributed_device = kInvalidDevice;
  }

  Bytes data_;
  std::vector<std::string> trace_;
  mutable std::optional<proto::ParsedFrame> parsed_;
  mutable bool parse_cached_ = false;

  static inline bool tracing_enabled_ = true;
};

using PacketPtr = std::shared_ptr<Packet>;

/// Free-list allocator recycling Packet objects. Single-threaded within
/// its owning shard (the simulator is event-driven); released packets
/// return here and hand their heap capacity to the next Acquire.
///
/// Sharded runs give every worker its own pool, bound to the thread via
/// BindToThisThread(): MakePacket/ClonePacket draw from Current(), and a
/// packet released on a thread that doesn't own its pool (a cross-shard
/// handoff dropped the last reference) is freed outright — touching a
/// foreign free list would race — and counted in ForeignReleases().
class PacketPool {
 public:
  /// Process-wide pool; Current() for unbound threads.
  static PacketPool& Global();

  /// The pool bound to the calling thread (Global() by default).
  static PacketPool& Current();

  /// Binds `pool` as the calling thread's pool; nullptr restores Global().
  static void BindToThisThread(PacketPool* pool);

  /// A packet whose bytes are `data` (recycled storage when available).
  PacketPtr Acquire(Bytes data);

  /// A copy of `src` (data, metadata, trace) in recycled storage.
  PacketPtr Clone(const Packet& src);

  /// When disabled, Acquire/Clone allocate fresh packets and releases
  /// free instead of recycling (benchmark A/B switch).
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] std::size_t FreeCount() const { return free_.size(); }

  /// Bounds the free list; surplus releases are simply freed.
  void SetMaxFree(std::size_t max_free) { max_free_ = max_free; }

  /// Packets released on a thread this pool isn't bound to (deleted
  /// rather than recycled; see class comment).
  [[nodiscard]] std::uint64_t ForeignReleases() const {
    return foreign_releases_.load(std::memory_order_relaxed);
  }

  /// Packets acquired from this pool and not yet released. Placement-
  /// invariant: the deleter captured at Acquire routes every release —
  /// including cross-shard foreign deletes — back to the acquiring pool,
  /// so summing Live() over all pools counts exactly the packets alive
  /// in the simulation (the admission controller's pool-pressure input).
  [[nodiscard]] std::int64_t Live() const {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  PacketPtr Wrap(std::unique_ptr<Packet> pkt);
  void Release(Packet* pkt);
  void PublishOccupancy() const;

  std::vector<std::unique_ptr<Packet>> free_;
  std::size_t max_free_ = 16384;
  bool enabled_ = true;
  std::atomic<std::uint64_t> foreign_releases_{0};
  // Acquire increments on the owning thread; Release may decrement from a
  // foreign thread (cross-shard handoff), hence atomic.
  std::atomic<std::int64_t> live_{0};
};

inline PacketPtr MakePacket(Bytes data) {
  return PacketPool::Current().Acquire(std::move(data));
}

inline PacketPtr ClonePacket(const Packet& src) {
  return PacketPool::Current().Clone(src);
}

/// Anything that can accept packets on numbered ports: switches, device
/// NICs, µmbox hosts, the attacker node.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void Receive(PacketPtr pkt, int port) = 0;
};

}  // namespace iotsec::net
