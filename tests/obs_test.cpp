// Observability subsystem: histogram bucket math, snapshot merging,
// registry export, the flight recorder's ring semantics, and the
// end-to-end incident path (a crashed µmbox must leave a readable,
// ordered breadcrumb trail plus recovery metrics).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/iotsec.h"
#include "obs/obs.h"

namespace iotsec {
namespace {

using obs::HistogramLayout;

// ---------------------------------------------------------------------
// Histogram bucket layout.

TEST(ObsHistogramTest, UnitBucketsAreExact) {
  for (std::uint64_t v = 0; v < HistogramLayout::kSubBuckets; ++v) {
    EXPECT_EQ(HistogramLayout::IndexOf(v), v);
    EXPECT_EQ(HistogramLayout::LowerBound(v), v);
  }
}

TEST(ObsHistogramTest, BucketBoundariesRoundTrip) {
  // Every bucket's lower bound must map back to that bucket, and the
  // value one below the next bucket's lower bound must too — the two
  // edges of the half-open interval [LowerBound(i), UpperBound(i)).
  for (std::size_t i = 0; i < HistogramLayout::kBucketCount; ++i) {
    EXPECT_EQ(HistogramLayout::IndexOf(HistogramLayout::LowerBound(i)), i)
        << "lower edge of bucket " << i;
    EXPECT_EQ(HistogramLayout::IndexOf(HistogramLayout::UpperBound(i) - 1), i)
        << "upper edge of bucket " << i;
  }
}

TEST(ObsHistogramTest, BucketWidthBoundsRelativeError) {
  // Log-linear contract: bucket width / lower bound <= 1/16 above the
  // unit range, so any recorded latency is attributed within ~6%.
  for (std::size_t i = HistogramLayout::kSubBuckets;
       i + 1 < HistogramLayout::kBucketCount; ++i) {
    const std::uint64_t lo = HistogramLayout::LowerBound(i);
    const std::uint64_t width = HistogramLayout::UpperBound(i) - lo;
    EXPECT_LE(width * HistogramLayout::kSubBuckets, lo)
        << "bucket " << i << " wider than lo/16";
  }
}

TEST(ObsHistogramTest, HugeValuesClampIntoLastBucket) {
  EXPECT_EQ(HistogramLayout::IndexOf(~std::uint64_t{0}),
            HistogramLayout::kBucketCount - 1);
  EXPECT_EQ(HistogramLayout::IndexOf(std::uint64_t{1} << 60),
            HistogramLayout::kBucketCount - 1);
}

TEST(ObsHistogramTest, RecordAndSnapshotStats) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
  // Nearest-rank percentiles resolve to the containing bucket's upper
  // bound: rank 499 (value 500) lives in [496,512) -> 511, rank 989
  // (value 990) in [960,992) -> 991. p100 clamps to the observed max.
  EXPECT_EQ(snap.Percentile(50), 511u);
  EXPECT_EQ(snap.Percentile(99), 991u);
  EXPECT_EQ(snap.Percentile(100), 1000u);
  EXPECT_EQ(snap.Percentile(0), 1u);
}

TEST(ObsHistogramTest, EmptySnapshotIsZero) {
  obs::Histogram h;
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Percentile(50), 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(ObsHistogramTest, ResetClears) {
  obs::Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
  h.Record(7);
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 7u);
  EXPECT_EQ(snap.max, 7u);
}

// ---------------------------------------------------------------------
// Cross-thread snapshot merge.

TEST(ObsMergeTest, CounterAndHistogramMergeExactlyAcrossThreads) {
  obs::Counter counter;
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Inc();
        hist.Record(i & 0xff);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter.Value(), kPerThread * kThreads);
  const auto snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kPerThread * kThreads);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0xffu);
}

// ---------------------------------------------------------------------
// Registry, export formats, compat adapter.

TEST(ObsRegistryTest, HandlesAreStableAndNamed) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.GetCounter("test.reg_counter");
  obs::Counter* b = reg.GetCounter("test.reg_counter");
  EXPECT_EQ(a, b);  // same name -> same metric
  a->Reset();
  a->Inc(3);
  EXPECT_EQ(reg.Snapshot().counters.at("test.reg_counter"), 3u);
}

TEST(ObsRegistryTest, JsonAndPrometheusExportContainMetrics) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.export_counter")->Reset();
  reg.GetCounter("test.export_counter")->Inc(12);
  reg.GetGauge("test.export_gauge")->Set(-5);
  obs::Histogram* h = reg.GetHistogram("test.export_ns");
  h->Reset();
  h->Record(100);
  h->Record(200);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test.export_counter\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"test.export_gauge\": -5"), std::string::npos);
  EXPECT_NE(json.find("\"test.export_ns\": {\"count\": 2"),
            std::string::npos);

  const std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_counter 12"), std::string::npos);
  EXPECT_NE(prom.find("test_export_gauge -5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_export_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("test_export_ns_count 2"), std::string::npos);
  EXPECT_NE(prom.find("test_export_ns_sum 300"), std::string::npos);
}

// Pin the admission-control surface: dashboards key on these names, so
// renaming them is a breaking change this test makes deliberate.
TEST(ObsRegistryTest, AdmissionMetricsExportUnderStableNames) {
  auto& m = obs::M();
  m.ctl_admission_level->Set(2);
  m.ctl_admission_transitions->Inc(3);
  m.ctl_admission_shed_launches->Inc(1);
  m.ctl_admission_deferred_restarts->Inc(4);
  m.ctl_admission_backpressure_drops->Inc(5);

  auto& reg = obs::MetricsRegistry::Global();
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"ctl.admission.level\": 2"), std::string::npos);
  for (const char* name :
       {"\"ctl.admission.transitions\"", "\"ctl.admission.shed_launches\"",
        "\"ctl.admission.deferred_restarts\"",
        "\"ctl.admission.backpressure_drops\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }

  const std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE ctl_admission_level gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("ctl_admission_level 2"), std::string::npos);
  for (const char* name :
       {"ctl_admission_transitions", "ctl_admission_shed_launches",
        "ctl_admission_deferred_restarts",
        "ctl_admission_backpressure_drops"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos)
        << name;
  }
}

// Pin the control-fabric message-volume surface (flat vs federated
// comparisons key on these) plus the federation counters.
TEST(ObsRegistryTest, ControlMessageMetricsExportUnderStableNames) {
  auto& m = obs::M();
  m.ctl_reevals_coalesced->Inc(2);
  m.ctl_msg_rule_pushes->Inc(7);
  m.ctl_msg_context_syncs->Inc(3);
  m.ctl_msg_heartbeat_forwards->Inc(1);
  m.ctl_fed_sync_keys->Inc(9);
  m.ctl_fed_push_ops->Inc(11);
  m.ctl_fed_local_reevals->Inc(5);
  m.ctl_fed_remote_reevals->Inc(4);

  auto& reg = obs::MetricsRegistry::Global();
  const std::string json = reg.ToJson();
  for (const char* name :
       {"\"ctl.reevals_coalesced\"", "\"ctl.msg.rule_pushes\"",
        "\"ctl.msg.context_syncs\"", "\"ctl.msg.heartbeat_forwards\"",
        "\"ctl.fed.sync_keys\"", "\"ctl.fed.push_ops\"",
        "\"ctl.fed.local_reevals\"", "\"ctl.fed.remote_reevals\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }

  const std::string prom = reg.ToPrometheusText();
  for (const char* name :
       {"ctl_reevals_coalesced", "ctl_msg_rule_pushes",
        "ctl_msg_context_syncs", "ctl_msg_heartbeat_forwards",
        "ctl_fed_sync_keys", "ctl_fed_push_ops", "ctl_fed_local_reevals",
        "ctl_fed_remote_reevals"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos)
        << name;
  }
}

// The fast-path and DPI counters keep their registry names in both exports.
TEST(ObsRegistryTest, FastPathAndDpiMetricsExportUnderStableNames) {
  obs::M();  // registers the handle bundle
  auto& reg = obs::MetricsRegistry::Global();
  const std::string json = reg.ToJson();
  const std::string prom = reg.ToPrometheusText();
  for (const char* name : {"fastpath.parse_full", "sig.compiles"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  for (const char* name : {"fastpath_parse_full", "sig_compiles"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos)
        << name;
  }
}

// ---------------------------------------------------------------------
// Spans.

TEST(ObsSpanTest, SpanRecordsOnlyWhenSamplingEnabled) {
  obs::Histogram h;
  obs::SetSampling(false);
  { OBS_SPAN(&h); }
  EXPECT_EQ(h.Snapshot().count, 0u);  // off: one branch, no record

  obs::SetSampling(true);
  { OBS_SPAN(&h); }
  obs::SetSampling(false);
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_LT(snap.max, 1000000000u);  // a trivial span is well under 1s
}

TEST(ObsSpanTest, SpanToleratesNullHistogram) {
  obs::SetSampling(true);
  { OBS_SPAN(nullptr); }  // must not crash
  obs::SetSampling(false);
}

// ---------------------------------------------------------------------
// Flight recorder.

TEST(ObsFlightRecorderTest, WraparoundKeepsNewestEvents) {
  obs::FlightRecorder fr;
  fr.SetCapacityPerThread(16);
  for (std::uint32_t i = 0; i < 40; ++i) {
    fr.Record(obs::TraceEventType::kPacketVerdict, i, i, i);
  }
  const auto dump = fr.Dump();
  ASSERT_EQ(dump.size(), 16u);  // ring overwrote the oldest 24
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].seq, 24 + i);
    EXPECT_EQ(dump[i].a, 24 + i);
  }
  EXPECT_EQ(fr.EventsRecorded(), 40u);
}

TEST(ObsFlightRecorderTest, DumpMergesThreadsInSequenceOrder) {
  obs::FlightRecorder fr;
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&fr, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        fr.Record(obs::TraceEventType::kPolicyTransition,
                  /*sim_time=*/i, static_cast<std::uint32_t>(t), i);
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto dump = fr.Dump();
  ASSERT_EQ(dump.size(), kThreads * kPerThread);
  for (std::size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].seq, dump[i].seq);  // global order, no dupes
  }
  // Every thread's events all survived (capacity default 4096 >> 200).
  std::vector<int> per_writer(kThreads, 0);
  for (const auto& ev : dump) ++per_writer[ev.a];
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_writer[t], static_cast<int>(kPerThread));
  }
}

TEST(ObsFlightRecorderTest, DisabledRecorderDropsEvents) {
  obs::FlightRecorder fr;
  fr.SetEnabled(false);
  fr.Record(obs::TraceEventType::kPacketVerdict, 0, 1, 2);
  EXPECT_TRUE(fr.Dump().empty());
  fr.SetEnabled(true);
  fr.Record(obs::TraceEventType::kPacketVerdict, 0, 1, 2);
  EXPECT_EQ(fr.Dump().size(), 1u);
}

TEST(ObsFlightRecorderTest, IncidentMarksTimelineAndNotifiesSink) {
  obs::FlightRecorder fr;
  fr.Record(obs::TraceEventType::kUmboxCrash, 100, 7, 3);
  fr.Record(obs::TraceEventType::kHeartbeatMiss, 200, 1, 7);

  std::string sink_reason;
  std::string sink_dump;
  int sink_calls = 0;
  fr.SetIncidentSink([&](const std::string& reason, const std::string& dump) {
    ++sink_calls;
    sink_reason = reason;
    sink_dump = dump;
  });
  fr.Incident("umbox 7 declared dead", 250);

  EXPECT_EQ(sink_calls, 1);
  EXPECT_EQ(sink_reason, "umbox 7 declared dead");
  // The delivered dump is the merged timeline including the incident
  // marker itself, in order.
  EXPECT_NE(sink_dump.find("umbox_crash"), std::string::npos);
  EXPECT_NE(sink_dump.find("heartbeat_miss"), std::string::npos);
  EXPECT_NE(sink_dump.find("incident"), std::string::npos);

  const auto dump = fr.Dump();
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump.back().type, obs::TraceEventType::kIncident);
  EXPECT_EQ(dump.back().sim_time, 250u);
}

TEST(ObsFlightRecorderTest, ClearDropsEventsButKeepsRecording) {
  obs::FlightRecorder fr;
  fr.Record(obs::TraceEventType::kMicroflowMiss, 0, 0, 0);
  fr.Clear();
  EXPECT_TRUE(fr.Dump().empty());
  fr.Record(obs::TraceEventType::kMicroflowMiss, 0, 0, 1);
  EXPECT_EQ(fr.Dump().size(), 1u);
}

// ---------------------------------------------------------------------
// End to end: a crashed µmbox leaves an ordered breadcrumb trail in the
// global recorder (injection -> detection -> recovery) and recovery
// metrics in the registry.

TEST(ObsIntegrationTest, CrashLeavesOrderedTrailAndRecoveryMetrics) {
  auto& fr = obs::FlightRecorder::Global();
  fr.Clear();
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("ctl.recoveries")->Reset();
  reg.GetHistogram("ctl.mttr_ns")->Reset();

  core::DeploymentOptions opts;
  core::Deployment dep(opts);
  devices::Camera* cam = dep.AddCamera("cam0");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(2 * kSecond);
  ASSERT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());

  dep.chaos().CrashUmboxOf(dep.sim().Now() + kSecond, cam->id());
  dep.RunFor(20 * kSecond);

  EXPECT_GE(dep.controller().stats().recovery_restarts, 1u);
  EXPECT_GE(reg.Snapshot().counters.at("ctl.recoveries"), 1u);
  const auto mttr = reg.GetHistogram("ctl.mttr_ns")->Snapshot();
  EXPECT_GE(mttr.count, 1u);
  EXPECT_GT(mttr.max, 0u);  // detection alone costs simulated time

  // The trail must read injection -> crash -> detection -> restart, in
  // global sequence order.
  const auto dump = fr.Dump();
  std::uint64_t seq_injected = 0, seq_crash = 0, seq_miss = 0,
                seq_restart = 0;
  bool saw_injected = false, saw_crash = false, saw_miss = false,
       saw_restart = false;
  for (const auto& ev : dump) {
    switch (ev.type) {
      case obs::TraceEventType::kFaultInjected:
        if (!saw_injected) { seq_injected = ev.seq; saw_injected = true; }
        break;
      case obs::TraceEventType::kUmboxCrash:
        if (!saw_crash) { seq_crash = ev.seq; saw_crash = true; }
        break;
      case obs::TraceEventType::kHeartbeatMiss:
        if (!saw_miss) { seq_miss = ev.seq; saw_miss = true; }
        break;
      case obs::TraceEventType::kUmboxRestart:
        if (!saw_restart) { seq_restart = ev.seq; saw_restart = true; }
        break;
      default: break;
    }
  }
  ASSERT_TRUE(saw_injected);
  ASSERT_TRUE(saw_crash);
  ASSERT_TRUE(saw_miss);
  ASSERT_TRUE(saw_restart);
  EXPECT_LT(seq_injected, seq_crash);
  EXPECT_LT(seq_crash, seq_miss);
  EXPECT_LT(seq_miss, seq_restart);
}

}  // namespace
}  // namespace iotsec
