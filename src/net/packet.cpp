#include "net/packet.h"

#include "obs/obs.h"

namespace iotsec::net {

void SetPacketTracing(bool /*enabled*/) {}

namespace {
thread_local PacketPool* t_bound_pool = nullptr;
}  // namespace

PacketPool& PacketPool::Global() {
  static PacketPool pool;
  return pool;
}

PacketPool& PacketPool::Current() {
  return t_bound_pool ? *t_bound_pool : Global();
}

void PacketPool::BindToThisThread(PacketPool* pool) { t_bound_pool = pool; }

PacketPtr PacketPool::Wrap(std::unique_ptr<Packet> pkt) {
  live_.fetch_add(1, std::memory_order_relaxed);
  return PacketPtr(pkt.release(),
                   [this](Packet* raw) { Release(raw); });
}

void PacketPool::PublishOccupancy() const {
  if (obs::Enabled()) {
    obs::M().net_pool_free->Set(static_cast<std::int64_t>(free_.size()));
  }
}

PacketPtr PacketPool::Acquire(Bytes data) {
  if (!enabled_ || free_.empty()) {
    obs::M().fastpath_pool_fresh->Inc();
    return Wrap(std::make_unique<Packet>(std::move(data)));
  }
  obs::M().fastpath_pool_reused->Inc();
  std::unique_ptr<Packet> pkt = std::move(free_.back());
  free_.pop_back();
  PublishOccupancy();
  // Moving into the recycled vector keeps whichever capacity is larger.
  pkt->data_ = std::move(data);
  return Wrap(std::move(pkt));
}

PacketPtr PacketPool::Clone(const Packet& src) {
  if (!enabled_ || free_.empty()) {
    obs::M().fastpath_pool_fresh->Inc();
    return Wrap(std::make_unique<Packet>(src));
  }
  obs::M().fastpath_pool_reused->Inc();
  std::unique_ptr<Packet> pkt = std::move(free_.back());
  free_.pop_back();
  PublishOccupancy();
  // Assign (rather than copy-construct) so the recycled byte capacity is
  // reused for the copy.
  *pkt = src;
  return Wrap(std::move(pkt));
}

void PacketPool::Release(Packet* pkt) {
  live_.fetch_sub(1, std::memory_order_relaxed);
  // A cross-shard handoff can drop the last reference on a thread bound
  // to a different pool (or to none of the shard pools). Recycling into
  // free_ from here would race with the owner; deleting is always safe.
  if (&Current() != this) {
    foreign_releases_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) obs::M().net_pool_foreign_release->Inc();
    delete pkt;
    return;
  }
  if (!enabled_ || free_.size() >= kMaxFree) {
    delete pkt;
    return;
  }
  pkt->ResetForReuse();
  free_.emplace_back(pkt);
  // Occupancy is published on both sides of the pool: releases capture
  // the high-water mark, and Acquire/Clone (above) capture the drawdown
  // so an acquire burst can't leave the gauge stale while admission
  // control is reading it. The idle fast path (pool disabled) still
  // pays nothing.
  PublishOccupancy();
}

}  // namespace iotsec::net
