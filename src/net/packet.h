// The unit of data exchanged on the simulated network.
//
// A Packet is three things: its raw bytes (the serialized Ethernet frame,
// immutable once the packet exists), its creation time, and a parse-once
// header cache. Nothing else rides along: forwarding state lives in the
// elements that handle the packet, not on it.
//
// Fast-path machinery (see DESIGN.md §3, "fast path"):
//   * parse-once headers — `Parsed()` decodes the frame lazily and caches
//     the `ParsedFrame` view on the packet, so the switch, tunnel
//     encap/decap and every µmbox element share one parse instead of
//     re-decoding the same bytes at each hop. The bytes are reachable only
//     through the const `data()`, so the cached view cannot go stale; only
//     copy-assignment and pool reuse replace them, and both drop the view.
//   * pooled allocation — `PacketPool` recycles Packet objects (and the
//     heap capacity of their byte vectors) through a free list;
//     `MakePacket`/`ClonePacket` draw from the global pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "obs/obs.h"
#include "proto/frame.h"

namespace iotsec::net {

/// No-op. Kept only because the perfbench harness still calls
/// it; packets no longer carry a hop trace to switch on or off.
void SetPacketTracing(bool enabled);

class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes data) : data_(std::move(data)) {}

  // The cached ParsedFrame holds spans into data_, so copies must
  // re-parse against their own buffer rather than inherit the view.
  Packet(const Packet& other)
      : created_at(other.created_at), data_(other.data_) {}
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      created_at = other.created_at;
      data_ = other.data_;
      InvalidateParse();
    }
    return *this;
  }
  Packet(Packet&&) = delete;
  Packet& operator=(Packet&&) = delete;

  [[nodiscard]] const Bytes& data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

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

  SimTime created_at = 0;

 private:
  friend class PacketPool;

  void InvalidateParse() const {
    parsed_.reset();
    parse_cached_ = false;
  }

  /// Resets the packet to a blank state, keeping heap capacity so the
  /// pool's next user skips the allocations.
  void ResetForReuse() {
    data_.clear();
    InvalidateParse();
    created_at = 0;
  }

  Bytes data_;
  mutable std::optional<proto::ParsedFrame> parsed_;
  mutable bool parse_cached_ = false;
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

  /// A copy of `src` (bytes and creation time) in recycled storage.
  PacketPtr Clone(const Packet& src);

  /// When disabled, Acquire/Clone allocate fresh packets and releases
  /// free instead of recycling (benchmark A/B switch).
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] std::size_t FreeCount() const { return free_.size(); }

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

  /// Bounds the free list; surplus releases are simply freed.
  static constexpr std::size_t kMaxFree = 16384;

  std::vector<std::unique_ptr<Packet>> free_;
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
