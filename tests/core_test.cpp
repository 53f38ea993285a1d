// Tests for the public facade: Deployment building, posture builders,
// state-space construction.
#include <gtest/gtest.h>

#include <string>

#include "core/iotsec.h"

namespace iotsec::core {
namespace {

TEST(PostureBuilderTest, AllPosturesProduceValidGraphs) {
  sim::Simulator sim;
  dataplane::ElementContext ctx;
  ctx.sim = &sim;
  const std::vector<policy::Posture> postures = {
      MonitorPosture(),
      QuarantinePosture(),
      FirewallPosture(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24)),
      PasswordProxyPosture(net::Ipv4Address(10, 0, 0, 5), "admin", "pass",
                           "admin", "admin"),
      ContextGatePosture(proto::IotCommand::kTurnOn, "device.cam.state",
                         "person_detected"),
      DnsGuardPosture(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24)),
  };
  for (const auto& posture : postures) {
    SCOPED_TRACE(posture.profile);
    std::string error;
    auto graph = dataplane::MboxGraph::Build(posture.umbox_config, ctx, &error);
    EXPECT_NE(graph, nullptr) << error;
    EXPECT_TRUE(posture.tunnel);
  }
  EXPECT_FALSE(TrustPosture().tunnel);
  EXPECT_TRUE(TrustPosture().umbox_config.empty());
}

TEST(DeploymentTest, SpecsAreUniqueAndWellFormed) {
  Deployment dep;
  auto* cam = dep.AddCamera("cam");
  auto* plug = dep.AddSmartPlug("plug", "oven_power");
  auto* bulb = dep.AddLightBulb("bulb");
  EXPECT_NE(cam->spec().ip, plug->spec().ip);
  EXPECT_NE(plug->spec().ip, bulb->spec().ip);
  EXPECT_NE(cam->spec().mac, plug->spec().mac);
  EXPECT_NE(cam->id(), plug->id());
  EXPECT_TRUE(dep.lan_prefix().Contains(cam->spec().ip));
  EXPECT_EQ(cam->spec().hub_ip, dep.controller().hub_ip());
  EXPECT_EQ(dep.registry().Count(), 3u);
  EXPECT_EQ(dep.Find("plug"), plug);
  EXPECT_EQ(dep.Find("nope"), nullptr);
}

TEST(DeploymentTest, BuildStateSpaceCoversDevicesAndEnv) {
  Deployment dep;
  dep.AddCamera("cam");
  dep.AddFireAlarm("protect");
  const auto space = dep.BuildStateSpace();
  // 2 devices x (ctx + state) + 8 env vars.
  EXPECT_EQ(space.DimensionCount(), 2 * 2 + 8u);
  EXPECT_TRUE(space.IndexOf("ctx:cam").has_value());
  EXPECT_TRUE(space.IndexOf("dev:protect").has_value());
  EXPECT_TRUE(space.IndexOf("env:smoke").has_value());
  // Device state dims carry the class's model states.
  const auto dev_cam = space.IndexOf("dev:cam");
  ASSERT_TRUE(dev_cam.has_value());
  const auto& dim = space.Dim(*dev_cam);
  EXPECT_NE(std::find(dim.values.begin(), dim.values.end(),
                      "person_detected"),
            dim.values.end());
}

TEST(DeploymentTest, TelemetryFlowsWithoutPolicy) {
  // Even with an empty policy (all defaults), devices report state and
  // the controller's view converges.
  Deployment dep;
  dep.AddSmartPlug("plug", "oven_power");
  policy::FsmPolicy policy;
  policy.SetDefault(TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().DeviceState("plug").value_or(""), "off");

  dep.Find("plug")->Actuate(proto::IotCommand::kTurnOn);
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().DeviceState("plug").value_or(""), "on");
}

TEST(DeploymentTest, TrustPostureLeavesTrafficDirect) {
  Deployment dep;
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_FALSE(dep.controller().UmboxOf(cam->id()).has_value());
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& r) {
                           status = r.status;
                         });
  dep.RunFor(kSecond);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(dep.edge().stats().tunneled, 0u);
}

TEST(DeploymentTest, WanAttackerGetsGateway) {
  DeploymentOptions opts;
  opts.wan_attacker = true;
  Deployment dep(opts);
  EXPECT_NE(dep.gateway(), nullptr);
  DeploymentOptions lan;
  Deployment dep2(lan);
  EXPECT_EQ(dep2.gateway(), nullptr);
}

TEST(DeploymentTest, MultipleClusterHostsBalanceUmboxes) {
  DeploymentOptions opts;
  opts.cluster_hosts = 2;
  opts.host_capacity = 4;
  Deployment dep(opts);
  for (int i = 0; i < 6; ++i) {
    dep.AddLightBulb("bulb" + std::to_string(i));
  }
  policy::FsmPolicy policy;
  policy.SetDefault(MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.cluster().TotalLoad(), 6);
  // Least-loaded placement splits 3/3.
  EXPECT_EQ(dep.cluster().hosts()[0]->load(), 3);
  EXPECT_EQ(dep.cluster().hosts()[1]->load(), 3);
}

// A write to the owner environment between runs must reach the device
// replicas when the next run starts — before the run's first event, not
// at some later barrier — whatever the shard count.
TEST(DeploymentTest, EnvironmentWriteBetweenRunsReachesDevices) {
  DeploymentOptions opts;
  opts.shards = 2;
  Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");
  dep.Start();
  dep.RunFor(kSecond);
  ASSERT_EQ(cam->State(), "idle");

  for (const bool on : {true, false}) {
    const std::string want = on ? "person_detected" : "idle";
    dep.environment().SetBool("occupancy", on);
    std::string seen;
    dep.SimFor(cam->id()).At(dep.Now() + kMicrosecond,
                             [&] { seen = cam->State(); });
    dep.RunFor(kMillisecond);
    EXPECT_EQ(seen, want) << "first event of the run saw a stale replica";
    EXPECT_EQ(cam->State(), want);
  }
}

}  // namespace
}  // namespace iotsec::core
