// The posture-churn workload: a core::Deployment on its default options
// (plus enough µmbox hosts for one µmbox per device), a per-device policy
// normal -> monitor / suspicious -> firewall, cloud keepalives through
// every µmbox, and a seeded schedule of context flips through the
// controller's public SetDeviceContext.
//
// Every flip toggles one device's context, so every flip must change that
// device's posture. The benchmark brackets the controller's reevaluation
// with two events of its own at the reevaluation's timestamp: one queued
// before SetDeviceContext schedules it, one after. The second one reads
// PostureProfileOf() and closes the flip's reaction time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deployment.h"
#include "gen.h"
#include "stats.h"

namespace perfbench {

struct ChurnConfig {
  int devices = 256;
  std::uint64_t seed = 1;
  SimDuration keepalive = 10 * iotsec::kMillisecond;
  SimDuration min_gap = 1500 * iotsec::kMicrosecond;
  SimDuration max_gap = 3500 * iotsec::kMicrosecond;
};

class Churn {
 public:
  /// Builds and starts the deployment, boots every µmbox and starts the
  /// keepalives and the flip schedule.
  explicit Churn(ChurnConfig config);
  ~Churn();

  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  void RunFor(SimDuration d);
  [[nodiscard]] iotsec::SimTime Now() const { return dep_->Now(); }
  /// No flip happens at or after `t`.
  void StopFlipsAt(iotsec::SimTime t) { stop_at_ = t; }
  void SetTracing(bool on);

  [[nodiscard]] ShardAccum& accum() { return acc_; }
  [[nodiscard]] iotsec::core::Deployment& deployment() { return *dep_; }
  [[nodiscard]] std::uint64_t flips() const { return flips_; }
  [[nodiscard]] std::uint64_t flips_applied() const { return applied_; }
  [[nodiscard]] std::uint64_t flips_failed() const { return flips_failed_; }
  [[nodiscard]] std::uint64_t policy_mismatches() const {
    return policy_mismatches_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& set_context_ns() const {
    return set_context_ns_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& evaluate_all_ns() const {
    return evaluate_all_ns_;
  }

  /// Keepalive accounting at the current simulated time: every keepalive
  /// sent more than a path's worst latency ago must have arrived, and no
  /// device may have delivered more than it sent.
  struct Keepalives {
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
    std::uint64_t missing = 0;     // devices short of their expected count
    std::uint64_t excess = 0;      // devices with more than they sent
    std::uint64_t unexpected = 0;  // frames the cloud cannot attribute
  };
  [[nodiscard]] Keepalives CountKeepalives() const;

 private:
  class CloudSink;

  void OnFlip();
  void AfterReevaluation(int device, std::uint64_t called_cpu_ns);

  ChurnConfig config_;
  // The cloud sink and its link outlive the deployment that points at them.
  std::unique_ptr<CloudSink> cloud_;
  std::unique_ptr<iotsec::net::Link> cloud_link_;
  std::unique_ptr<iotsec::core::Deployment> dep_;
  iotsec::policy::StateSpace space_;
  std::vector<std::string> names_;
  std::vector<iotsec::DeviceId> ids_;
  std::vector<bool> suspicious_;
  std::vector<iotsec::SimTime> keepalive_start_;
  std::vector<std::uint64_t> keepalives_;
  std::unordered_map<std::uint32_t, int> index_of_ip_;
  FlipGen flip_gen_;
  Flip next_{};
  iotsec::SimTime stop_at_ = ~iotsec::SimTime{0};
  bool tracing_ = false;
  std::uint64_t reeval_started_ns_ = 0;

  ShardAccum acc_;
  std::uint64_t flips_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t flips_failed_ = 0;
  std::uint64_t policy_mismatches_ = 0;
  std::vector<std::uint64_t> set_context_ns_;
  std::vector<std::uint64_t> evaluate_all_ns_;
};

}  // namespace perfbench
