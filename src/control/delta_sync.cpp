#include "control/delta_sync.h"

#include <algorithm>

#include "common/hash.h"

namespace iotsec::control {

bool SegmentStateView::Set(const std::string& key, const std::string& value) {
  auto it = values_.find(key);
  if (it != values_.end() && it->second == value) return false;
  if (it == values_.end()) {
    values_.emplace(key, value);
  } else {
    it->second = value;
  }
  ++version_;
  dirty_.insert(key);
  return true;
}

const std::string* SegmentStateView::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

StateDelta SegmentStateView::DrainDelta() {
  StateDelta delta;
  delta.segment = segment_;
  if (dirty_.empty()) return delta;
  delta.epoch = ++epoch_;
  delta.version = version_;
  delta.entries.reserve(dirty_.size());
  // std::set iterates in key order — the canonical wire order.
  for (const auto& key : dirty_) {
    delta.entries.push_back(DeltaEntry{key, values_.at(key)});
  }
  dirty_.clear();
  return delta;
}

void GlobalStateStore::AddDependency(const std::string& key, int segment) {
  readers_[key].insert(segment);
}

std::vector<int> GlobalStateStore::Apply(const StateDelta& delta) {
  std::set<int> dependents;
  for (const DeltaEntry& e : delta.entries) {
    values_[e.key] = e.value;
    ++stats_.entries_applied;
    const std::uint64_t kv = Mix64(Fnv1a64(kFnvOffsetBasis, e.key),
                                   Fnv1a64(kFnvOffsetBasis, e.value));
    digest_ = Mix64(
        digest_,
        Mix64(static_cast<std::uint64_t>(delta.segment) << 32 | delta.epoch,
              kv));
    const auto it = readers_.find(e.key);
    if (it == readers_.end()) continue;
    for (const int seg : it->second) {
      if (seg != delta.segment) dependents.insert(seg);
    }
  }
  ++stats_.deltas_applied;
  applied_epoch_[delta.segment] = delta.epoch;
  stats_.dependent_wakeups += dependents.size();
  return {dependents.begin(), dependents.end()};
}

std::vector<int> GlobalStateStore::DependentsOf(const std::string& key,
                                                int except) const {
  std::vector<int> out;
  const auto it = readers_.find(key);
  if (it == readers_.end()) return out;
  for (const int seg : it->second) {
    if (seg != except) out.push_back(seg);
  }
  return out;
}

const std::string* GlobalStateStore::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::uint64_t GlobalStateStore::AppliedEpoch(int segment) const {
  const auto it = applied_epoch_.find(segment);
  return it == applied_epoch_.end() ? 0 : it->second;
}

}  // namespace iotsec::control
