// RolloutCoordinator: staged canary rollout with health-gated promotion.
//
// Drives a SKU's new ruleset version from the VersionStore to the fleet
// in permille stages (e.g. 50‰ canary → 1000‰ fleet). Cohort membership
// is a deterministic, placement-invariant hash of (device id, version):
// the same devices canary the same version no matter how the fleet is
// sharded, so the rollout decision trace digests bit-identically at any
// shard count — the same hard gate PRs 6–8 established for the
// dataplane, admission and federation layers.
//
// Promotion is health-gated: each stage holds for a configured window,
// then the canary cohort's alert rate over the hold is compared against
// the untouched control group's (integer-permille arithmetic, plus an
// absolute quiet-fleet allowance) and the cohort's crash count against a
// hard cap. A failed gate triggers instant rollback — every cohort
// device epoch-swaps back to its pinned previous compile — and the
// version is quarantined in the store, never offered again. Under
// admission-control brownout (PR 7) stage advancement defers: pushing
// new rulesets at a saturated fleet only deepens the overload, while
// rollback always proceeds (it is the safe direction).
//
// The coordinator runs on the control plane (shard 0's simulator); alert
// and crash attributions arrive via the controller's control-latency
// paths, so every input is single-threaded and deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "rollout/receiver.h"
#include "rollout/version_store.h"
#include "sim/simulator.h"

namespace iotsec::control {
class AdmissionController;
}  // namespace iotsec::control

namespace iotsec::rollout {

/// What the pre-canary differential-verification gate does with a
/// candidate version the verifier rejects (see verify/diff_verify.h).
/// The gate runs only when a verifier is installed (SetVerifier); with
/// none there is no verification.
enum class VerifyGateMode : std::uint8_t {
  kWarn,  // log + count the regression, stage anyway
  kBlock, // quarantine the candidate and fall back to the next viable one
};

/// Pre-canary verification hook: called with (sku, stable base version,
/// candidate target version) before the candidate starts staging. False
/// means the candidate regresses enforcement relative to the base;
/// *detail (never null) carries the findings text for the log.
using PreRolloutVerifier = std::function<bool(
    const std::string& sku, std::uint64_t base_version,
    std::uint64_t target_version, std::string* detail)>;

struct RolloutConfig {
  /// Master switch (DeploymentOptions::rollout.enabled). Off: CrowdRepo's
  /// flat whole-ruleset fan-out path is byte-identical to every release
  /// before the OTA pipeline existed.
  bool enabled = false;
  /// Stage ladder, permille of the fleet per stage; the last entry should
  /// be 1000 (fleet). Empty behaves as {1000}.
  std::vector<std::uint32_t> stages{50, 1000};
  /// Health-gate observation window per stage.
  SimDuration stage_hold = 2 * kSecond;
  /// Retry interval when advancement is deferred by admission brownout.
  SimDuration defer_retry = 500 * kMillisecond;
  /// Manifest deliveries batched per control-plane push message
  /// (ctl.rollout.push_msgs / push_bytes meter the channel).
  std::uint32_t push_batch = 32;

  // The health gate's limits are fixed constants (coordinator.cpp): the
  // cohort fails its gate when, over the hold,
  //   * it has any crash (kMaxCohortCrashes = 0), or
  //   * its alerts exceed BOTH the absolute quiet-fleet allowance
  //     (kQuietAlertAllowance = 1 per cohort device) AND the control
  //     group's per-device rate scaled by kAlertRatioLimitPermille = 3000
  //     (3x the control group).
  // All integer arithmetic on barrier-deterministic counts — no wall
  // clock in the decision path.

  /// Pre-canary diff-verify gate mode. Takes effect only when a verifier
  /// is installed via SetVerifier, so installing one turns the gate on.
  VerifyGateMode verify_gate = VerifyGateMode::kBlock;
};

class RolloutCoordinator {
 public:
  RolloutCoordinator(sim::Simulator& simulator, VersionStore* store,
                     RolloutConfig config);

  /// Brownout interplay (optional): stage advancement defers at kDefer or
  /// worse.
  void SetAdmission(control::AdmissionController* admission) {
    admission_ = admission;
  }

  /// How a verified compile reaches a device's running µmbox. The
  /// controller implements this as an epoch swap on the in-place
  /// SignatureMatcher (full reconfigure on first install). A null
  /// compile means "no crowd rules" (rolled back to version 0).
  using Applier = std::function<void(
      DeviceId, const std::shared_ptr<const sig::CompiledRuleset>&)>;
  void SetApplier(Applier applier) { applier_ = std::move(applier); }

  /// Installs the pre-canary differential verifier (typically
  /// verify::MakePreRolloutVerifier). With config.verify_gate at kBlock,
  /// a candidate the verifier rejects is quarantined before any device
  /// sees it and the next viable version is tried; at kWarn it stages
  /// with a logged warning.
  void SetVerifier(PreRolloutVerifier verifier) {
    verifier_ = std::move(verifier);
  }

  /// Registers a managed device (idempotent). Devices register before
  /// rollouts start; late registrants join at the next version.
  void RegisterDevice(DeviceId device, const std::string& sku);

  /// Entry point from the crowd pipeline: a new version exists for `sku`
  /// in the store. Begins a staged rollout (or queues it behind one in
  /// flight).
  void OnVersionCut(const std::string& sku);

  /// Alert/crash attribution (controller hooks, post-control-latency —
  /// single-threaded on the coordinator's simulator).
  void OnDeviceAlert(DeviceId device);
  void OnDeviceCrash(DeviceId device);

  /// Operator-initiated rollback of the in-flight rollout for `sku`
  /// (same path as a failed gate). False when nothing is in flight.
  bool OperatorRollback(const std::string& sku);

  /// The rule texts a device's EffectiveConfig should splice in — its
  /// receiver's installed ruleset (cohort devices see the new version,
  /// the control group the stable one).
  [[nodiscard]] const std::vector<std::string>& RuleTextsFor(
      DeviceId device) const;

  /// Deterministic cohort membership test (exposed for tests/bench):
  /// hash(device, version) lands in [0, 1000) and is compared against
  /// the stage permille — monotone in permille, placement-invariant.
  [[nodiscard]] static bool InCohort(DeviceId device, std::uint64_t version,
                                     std::uint32_t permille);

  /// The version store this coordinator stages from (never null).
  [[nodiscard]] VersionStore* store() const { return store_; }

  /// Installed version for a device (0 = none).
  [[nodiscard]] std::uint64_t VersionOf(DeviceId device) const;
  [[nodiscard]] const RulesetReceiver* ReceiverOf(DeviceId device) const;

  enum class SkuState : std::uint8_t { kIdle, kStaging, kRollingBack };
  [[nodiscard]] SkuState StateOf(const std::string& sku) const;
  /// Last promoted (stable) version for a SKU.
  [[nodiscard]] std::uint64_t StableOf(const std::string& sku) const;

  struct Stats {
    std::uint64_t rollouts_started = 0;
    std::uint64_t stages_applied = 0;
    std::uint64_t gates_passed = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t deferred = 0;
    std::uint64_t devices_applied = 0;   // device-version installs
    std::uint64_t devices_rolled_back = 0;
    /// Pre-canary verification gate outcomes.
    std::uint64_t verify_checks = 0;
    std::uint64_t verify_blocks = 0;  // candidates quarantined (kBlock)
    std::uint64_t verify_warns = 0;   // regressions staged anyway (kWarn)
    std::uint64_t push_msgs = 0;
    std::uint64_t push_bytes = 0;
    /// Gate inputs from the most recent evaluation (bench introspection).
    std::uint64_t last_cohort_alerts = 0;
    std::uint64_t last_control_alerts = 0;
    std::uint64_t last_cohort_crashes = 0;
    std::uint64_t last_sig_matches_delta = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Order-sensitive fold of every rollout decision (begin, per-stage
  /// apply with cohort membership, gate verdict with its inputs,
  /// promote/rollback/defer). Bit-identical across shard counts for the
  /// same scenario — bench_rollout's hard determinism gate.
  [[nodiscard]] std::uint64_t DecisionDigest() const { return digest_; }

 private:
  struct SkuRollout {
    std::uint64_t target = 0;  // version in flight (0 = idle)
    std::uint64_t stable = 0;  // last promoted version
    int stage = -1;            // index into config_.stages
    /// Bumped on begin/promote/rollback; in-flight hold timers carry the
    /// epoch they were scheduled under and no-op on mismatch.
    std::uint64_t epoch = 0;
    bool pending = false;  // a newer version arrived mid-rollout
    std::vector<DeviceId> cohort;  // devices at target, ascending id
    // Gate-window baselines (absolute counts at stage start).
    std::uint64_t cohort_alerts_base = 0;
    std::uint64_t control_alerts_base = 0;
    std::uint64_t cohort_crashes_base = 0;
    std::uint64_t sig_matches_base = 0;
  };
  struct DeviceState {
    std::string sku;
    RulesetReceiver receiver;
  };

  void Begin(const std::string& sku, SkuRollout& r);
  /// Scheduled stage entry: epoch-guarded, defers under brownout.
  void TryApplyStage(const std::string& sku, std::uint64_t epoch);
  void ApplyStage(const std::string& sku, SkuRollout& r);
  void EvaluateGate(const std::string& sku, std::uint64_t epoch);
  void Rollback(const std::string& sku, SkuRollout& r);
  void FinishRollout(const std::string& sku, SkuRollout& r, bool promoted);
  void SnapshotGateBaselines(const std::string& sku, SkuRollout& r);
  [[nodiscard]] bool AdmissionWantsDefer() const;
  /// Sums alert/crash counts over the cohort vs the SKU's control group.
  void SumSignals(const std::string& sku, const SkuRollout& r,
                  std::uint64_t* cohort_alerts,
                  std::uint64_t* control_alerts,
                  std::uint64_t* cohort_crashes) const;
  void Fold(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
            std::uint64_t c);

  sim::Simulator& sim_;
  VersionStore* store_;
  RolloutConfig config_;
  control::AdmissionController* admission_ = nullptr;
  Applier applier_;
  PreRolloutVerifier verifier_;
  std::map<DeviceId, DeviceState> devices_;
  std::map<std::string, SkuRollout> rollouts_;  // by sku
  std::map<DeviceId, std::uint64_t> alerts_;    // lifetime per-device
  std::map<DeviceId, std::uint64_t> crashes_;
  std::uint64_t digest_ = 0;
  Stats stats_;
};

}  // namespace iotsec::rollout
