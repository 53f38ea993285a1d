// Tests for the hierarchical controller federation: delta state sync,
// batched/coalesced rule pushes, segment construction over a real
// Deployment, cross-segment policy convergence, and the shard-count
// invariance of the sync+push digests.
#include <gtest/gtest.h>

#include "control/delta_sync.h"
#include "control/federation.h"
#include "core/iotsec.h"
#include "sdn/switch.h"

namespace iotsec::control {
namespace {

// ------------------------------------------------------- delta sync

TEST(SegmentStateViewTest, SetIsIdempotentAndTracksDirtyKeys) {
  SegmentStateView view(3);
  EXPECT_EQ(view.segment(), 3);
  EXPECT_TRUE(view.Set("ctx:cam", "normal"));
  EXPECT_EQ(view.version(), 1u);
  EXPECT_EQ(view.DirtyCount(), 1u);
  // Rewriting the current value is free: no version bump, no dirty key,
  // no sync traffic.
  EXPECT_FALSE(view.Set("ctx:cam", "normal"));
  EXPECT_EQ(view.version(), 1u);
  EXPECT_EQ(view.DirtyCount(), 1u);
  EXPECT_TRUE(view.Set("ctx:cam", "compromised"));
  EXPECT_EQ(view.version(), 2u);
  ASSERT_NE(view.Get("ctx:cam"), nullptr);
  EXPECT_EQ(*view.Get("ctx:cam"), "compromised");
  EXPECT_EQ(view.Get("ctx:ghost"), nullptr);
}

TEST(SegmentStateViewTest, DrainDeltaSortsKeysAndSkipsEmptyEpochs) {
  SegmentStateView view(1);
  view.Set("dev:plug", "on");
  view.Set("ctx:cam", "suspicious");
  view.Set("dev:plug", "off");  // same key dirtied twice -> one entry

  const StateDelta delta = view.DrainDelta();
  EXPECT_EQ(delta.segment, 1);
  EXPECT_EQ(delta.epoch, 1u);
  EXPECT_EQ(delta.version, 3u);
  ASSERT_EQ(delta.entries.size(), 2u);
  // Lexicographic key order is the canonical wire order.
  EXPECT_EQ(delta.entries[0].key, "ctx:cam");
  EXPECT_EQ(delta.entries[1].key, "dev:plug");
  EXPECT_EQ(delta.entries[1].value, "off");
  EXPECT_FALSE(view.HasDirty());

  // A quiet epoch ships nothing and does not advance the epoch counter.
  const StateDelta empty = view.DrainDelta();
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_EQ(view.epoch(), 1u);
}

TEST(GlobalStateStoreTest, ApplyWakesDependentsAndFoldsDigest) {
  GlobalStateStore store;
  store.AddDependency("ctx:cam", 0);  // owner reads its own key
  store.AddDependency("ctx:cam", 1);
  store.AddDependency("ctx:cam", 2);
  store.AddDependency("env:smoke", 2);

  StateDelta delta;
  delta.segment = 0;
  delta.epoch = 1;
  delta.entries.push_back({"ctx:cam", "compromised"});

  const std::uint64_t before = store.SyncDigest();
  EXPECT_EQ(store.Apply(delta), (std::vector<int>{1, 2}))
      << "origin segment must not be woken for its own delta";
  EXPECT_NE(store.SyncDigest(), before);
  ASSERT_NE(store.Get("ctx:cam"), nullptr);
  EXPECT_EQ(*store.Get("ctx:cam"), "compromised");
  EXPECT_EQ(store.AppliedEpoch(0), 1u);
  EXPECT_EQ(store.AppliedEpoch(7), 0u);
  EXPECT_EQ(store.stats().deltas_applied, 1u);
  EXPECT_EQ(store.stats().entries_applied, 1u);
  EXPECT_EQ(store.stats().dependent_wakeups, 2u);

  EXPECT_EQ(store.DependentsOf("ctx:cam", 1), (std::vector<int>{0, 2}));
  EXPECT_TRUE(store.DependentsOf("ctx:ghost", -1).empty());
}

// --------------------------------------------------- rule push batcher

sdn::FlowEntry Entry(std::uint64_t cookie, int priority) {
  sdn::FlowEntry entry;
  entry.priority = priority;
  entry.cookie = cookie;
  entry.actions.push_back(sdn::FlowAction::Drop());
  return entry;
}

TEST(RulePushBatcherTest, RemoveSupersedesBufferedInstalls) {
  sim::Simulator sim;
  sdn::Switch sw(7, sim, sdn::Switch::MissBehavior::kDrop);
  // Pre-existing generation of cookie-5 rules the remove must clear.
  sw.flow_table().Install(Entry(5, 1));

  RulePushBatcher batcher(sim);
  batcher.Install(&sw, Entry(5, 10), /*urgent=*/false);
  batcher.Install(&sw, Entry(5, 11), /*urgent=*/false);
  // The remove supersedes both buffered installs: they are never sent.
  batcher.RemoveByCookie(&sw, 5, /*urgent=*/false);
  // A second remove for the same cookie collapses into the first.
  batcher.RemoveByCookie(&sw, 5, /*urgent=*/false);
  batcher.Install(&sw, Entry(5, 12), /*urgent=*/false);
  EXPECT_TRUE(batcher.HasPending());

  batcher.FlushAll();
  EXPECT_FALSE(batcher.HasPending());
  // Net effect on the switch: old rules gone, exactly the last install.
  ASSERT_EQ(sw.flow_table().Size(), 1u);
  EXPECT_EQ(sw.flow_table().Entries()[0].priority, 12);
  EXPECT_EQ(sw.stats().flowmod_batches, 1u);
  EXPECT_EQ(sw.stats().flowmod_ops, 2u) << "remove + surviving install";

  const auto& stats = batcher.stats();
  EXPECT_EQ(stats.ops_buffered, 5u);
  EXPECT_EQ(stats.ops_coalesced, 3u);  // two installs + duplicate remove
  EXPECT_EQ(stats.ops_emitted, 2u);
  EXPECT_EQ(stats.pushes, 1u);
}

TEST(RulePushBatcherTest, UrgentOpsFlushWithoutWaitingForTheQuantum) {
  sim::Simulator sim;
  sdn::Switch sw(7, sim, sdn::Switch::MissBehavior::kDrop);
  sw.flow_table().Install(Entry(9, 1));

  RulePushBatcher batcher(sim);  // no ticker: only urgent ops flush
  // A quarantine transition emits remove+install from one handler; the
  // After(0) flush lands both in a single batch at the same sim time.
  sim.At(kMillisecond, [&] {
    batcher.RemoveByCookie(&sw, 9, /*urgent=*/true);
    batcher.Install(&sw, Entry(9, 50), /*urgent=*/true);
  });
  sim.Run();

  ASSERT_EQ(sw.flow_table().Size(), 1u);
  EXPECT_EQ(sw.flow_table().Entries()[0].priority, 50);
  EXPECT_EQ(sw.stats().flowmod_batches, 1u)
      << "one handler's urgent ops must share one batch";
  EXPECT_EQ(sw.stats().flowmod_ops, 2u);
  EXPECT_EQ(batcher.stats().urgent_flushes, 2u);
  EXPECT_EQ(batcher.stats().pushes, 1u);
}

TEST(RulePushBatcherTest, QuantumAndSizeThresholdBothTriggerFlushes) {
  sim::Simulator sim;
  sdn::Switch sw(7, sim, sdn::Switch::MissBehavior::kDrop);

  RulePushBatcher batcher(sim);
  batcher.Start();
  batcher.Install(&sw, Entry(0, 1), /*urgent=*/false);
  sim.RunFor(kPushQuantum / 2);
  EXPECT_EQ(batcher.stats().pushes, 0u) << "quantum not reached yet";
  sim.RunFor(kPushQuantum);
  EXPECT_EQ(batcher.stats().pushes, 1u) << "quantum ticker flushed";

  // Hitting kPushMaxBatch forces an immediate (same-time) flush.
  sim.After(0, [&] {
    for (std::size_t i = 0; i < kPushMaxBatch; ++i) {
      batcher.Install(&sw, Entry(0, 10 + static_cast<int>(i)),
                      /*urgent=*/false);
    }
  });
  sim.RunFor(kMicrosecond);
  EXPECT_EQ(batcher.stats().pushes, 2u);
  EXPECT_EQ(sw.flow_table().Size(), kPushMaxBatch + 1);
  EXPECT_NE(batcher.PushDigest(), 0u);
}

// ------------------------------------------- federated control plane

struct FedFixture {
  /// cam + lock interact (the lock's quarantine rule reads ctx:cam);
  /// the bulb is isolated. Returns a started deployment.
  static std::unique_ptr<core::Deployment> Make(
      core::DeploymentOptions opts) {
    auto dep = std::make_unique<core::Deployment>(std::move(opts));
    auto* cam = dep->AddCamera("cam");
    dep->AddSmartLock("lock");
    dep->AddLightBulb("bulb");
    (void)cam;

    policy::FsmPolicy policy;
    policy.SetDefault(core::MonitorPosture());
    policy::PolicyRule rule;
    rule.name = "lock-down-on-cam-compromise";
    rule.when = policy::StatePredicate::Eq("ctx:cam", "compromised");
    rule.device = dep->Find("lock")->id();
    rule.posture = core::QuarantinePosture();
    rule.priority = 10;
    policy.Add(rule);
    dep->UsePolicy(dep->BuildStateSpace(), std::move(policy));
    dep->Start();
    return dep;
  }
};

TEST(FederationTest, BuildsSegmentsFromThePolicyInteractionGraph) {
  core::DeploymentOptions opts;
  opts.federation.enabled = true;
  auto dep = FedFixture::Make(opts);
  auto* fed = dep->federation();
  ASSERT_NE(fed, nullptr);

  // cam+lock interact via the quarantine rule; bulb stands alone.
  EXPECT_EQ(fed->SegmentCount(), 2u);
  const DeviceId cam = dep->Find("cam")->id();
  const DeviceId lock = dep->Find("lock")->id();
  const DeviceId bulb = dep->Find("bulb")->id();
  EXPECT_EQ(fed->SegmentOf(cam), fed->SegmentOf(lock));
  EXPECT_NE(fed->SegmentOf(cam), fed->SegmentOf(bulb));
  EXPECT_EQ(fed->SegmentOf(999999), -1);
  // Interaction-closed segments: nothing crosses, nothing to sync.
  EXPECT_EQ(fed->CrossKeyCount(), 0u);
}

TEST(FederationTest, SegmentCapPutsInteractingDevicesOnTheSyncPath) {
  core::DeploymentOptions opts;
  opts.federation.enabled = true;
  opts.federation.max_segment_devices = 1;
  auto dep = FedFixture::Make(opts);
  auto* fed = dep->federation();
  ASSERT_NE(fed, nullptr);

  EXPECT_EQ(fed->SegmentCount(), 3u);
  const DeviceId cam = dep->Find("cam")->id();
  const DeviceId lock = dep->Find("lock")->id();
  EXPECT_NE(fed->SegmentOf(cam), fed->SegmentOf(lock));
  // The lock's rule now reads ctx:cam from another segment.
  EXPECT_GE(fed->CrossKeyCount(), 1u);

  dep->RunFor(kSecond);
  EXPECT_EQ(dep->controller().PostureProfileOf(lock), "monitor");

  // cam compromised: the owner segment dirties ctx:cam, the next sync
  // epoch ships the delta, the global tier wakes the lock's segment and
  // its quarantine rule fires — cross-segment policy via delta sync.
  dep->controller().SetDeviceContext("cam", "compromised");
  dep->RunFor(kSecond);
  EXPECT_EQ(dep->controller().PostureProfileOf(lock), "quarantine");

  const auto& stats = fed->stats();
  EXPECT_GT(stats.local_events, 0u);
  EXPECT_GE(stats.sync_keys, 1u);
  EXPECT_GE(stats.context_syncs, 2u) << "delta ship + dependent wakeup";
  EXPECT_GE(stats.remote_reevals, 1u);
  EXPECT_LE(stats.heartbeat_forwards, stats.heartbeats_absorbed)
      << "heartbeats aggregate into at most one summary per epoch";
  EXPECT_GE(fed->global_store().stats().deltas_applied, 1u);
  EXPECT_GT(fed->batcher().stats().pushes, 0u);
  EXPECT_NE(fed->CombinedDigest(), 0u);
}

TEST(FederationTest, BurstsCoalesceIntoOneSegmentReevaluation) {
  core::DeploymentOptions opts;
  opts.federation.enabled = true;
  auto dep = FedFixture::Make(opts);
  dep->RunFor(kSecond);

  // Two transitions inside one local-latency window: the second wakeup
  // rides the already-scheduled segment sweep.
  dep->controller().SetDeviceContext("cam", "suspicious");
  dep->controller().SetDeviceContext("cam", "compromised");
  EXPECT_GE(dep->federation()->stats().reevals_coalesced, 1u);
  dep->RunFor(kSecond);
  EXPECT_EQ(dep->controller().PostureProfileOf(dep->Find("lock")->id()),
            "quarantine");
}

TEST(FederationTest, FlatControllerCoalescesRedundantWakeups) {
  core::DeploymentOptions opts;  // federation off: flat path
  auto dep = FedFixture::Make(opts);
  dep->RunFor(kSecond);
  const std::uint64_t before = dep->controller().stats().reevals_coalesced;
  dep->controller().SetDeviceContext("cam", "suspicious");
  dep->controller().SetDeviceContext("cam", "compromised");
  EXPECT_GE(dep->controller().stats().reevals_coalesced, before + 1);
  dep->RunFor(kSecond);
  EXPECT_EQ(dep->controller().PostureProfileOf(dep->Find("lock")->id()),
            "quarantine");
}

/// One federated scenario at a given dataplane shard count; returns the
/// federation digests. Shard count must be a performance knob only.
std::uint64_t RunFederatedScenario(int shards) {
  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.federation.enabled = true;
  opts.federation.max_segment_devices = 1;
  auto dep = FedFixture::Make(opts);
  dep->RunFor(2 * kSecond);
  dep->controller().SetDeviceContext("cam", "suspicious");
  dep->RunFor(kSecond);
  dep->controller().SetDeviceContext("cam", "compromised");
  dep->RunFor(2 * kSecond);
  EXPECT_EQ(dep->controller().PostureProfileOf(dep->Find("lock")->id()),
            "quarantine")
      << "at " << shards << " shards";
  return dep->federation()->CombinedDigest();
}

TEST(FederationTest, SyncAndPushDigestsAreShardInvariant) {
  const std::uint64_t one = RunFederatedScenario(1);
  ASSERT_NE(one, 0u);
  EXPECT_EQ(RunFederatedScenario(2), one);
  EXPECT_EQ(RunFederatedScenario(8), one);
}

}  // namespace
}  // namespace iotsec::control
