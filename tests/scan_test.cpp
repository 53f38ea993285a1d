// Tests for the vulnerability scanner.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/iotsec.h"
#include "scan/scanner.h"
#include "sdn/shard_map.h"

namespace iotsec::scan {
namespace {

using devices::Vulnerability;

struct ScanWorld {
  core::Deployment dep;

  ScanWorld() : dep(Options()) {}

  static core::DeploymentOptions Options() {
    core::DeploymentOptions opts;
    opts.with_iotsec = false;  // scanning the unmanaged world
    return opts;
  }
};

TEST(ScannerTest, FindsEachFlawClassExactly) {
  ScanWorld world;
  auto* weak_cam = world.dep.AddCamera(
      "weak-cam", {Vulnerability::kDefaultPassword}, "admin");
  auto* leaky_cam =
      world.dep.AddCamera("leaky-cam", {Vulnerability::kUnprotectedKeys});
  auto* wemo = world.dep.AddSmartPlug(
      "wemo", "oven_power",
      {Vulnerability::kBackdoor, Vulnerability::kOpenDnsResolver});
  auto* clean = world.dep.AddLightBulb("clean-bulb");
  auto stb_spec = world.dep.MakeSpec("stb", devices::DeviceClass::kSetTopBox,
                                     {Vulnerability::kExposedAccess});
  auto* stb = world.dep.Attach(std::make_unique<devices::SetTopBox>(
      stb_spec, world.dep.sim(), &world.dep.environment()));
  world.dep.Start();

  VulnerabilityScanner scanner(
      world.dep.sim(), [&](SimDuration d) { world.dep.RunFor(d); },
      world.dep.attacker());
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));

  EXPECT_EQ(report.targets_probed, 5u);
  EXPECT_GT(report.probes_sent, 5u * 5u);

  EXPECT_EQ(report.For(weak_cam->id()),
            std::set<Vulnerability>{Vulnerability::kDefaultPassword});
  EXPECT_EQ(report.For(leaky_cam->id()),
            std::set<Vulnerability>{Vulnerability::kUnprotectedKeys});
  EXPECT_EQ(report.For(wemo->id()),
            (std::set<Vulnerability>{Vulnerability::kBackdoor,
                                     Vulnerability::kOpenDnsResolver}));
  EXPECT_EQ(report.For(stb->id()),
            std::set<Vulnerability>{Vulnerability::kExposedAccess});
  EXPECT_TRUE(report.For(clean->id()).empty())
      << "a clean device must produce zero findings";
}

TEST(ScannerTest, ExposedAccessSubsumesDefaultPassword) {
  // A fridge whose management page needs no auth at all: the scanner must
  // classify it as exposed access, not also as default-password (the
  // wordlist "working" is an artifact).
  ScanWorld world;
  auto spec = world.dep.MakeSpec("fridge", devices::DeviceClass::kRefrigerator,
                                 {Vulnerability::kExposedAccess});
  auto* fridge = world.dep.Attach(std::make_unique<devices::Refrigerator>(
      spec, world.dep.sim(), &world.dep.environment()));
  world.dep.Start();

  VulnerabilityScanner scanner(
      world.dep.sim(), [&](SimDuration d) { world.dep.RunFor(d); },
      world.dep.attacker());
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));
  EXPECT_TRUE(report.Has(fridge->id(), Vulnerability::kExposedAccess));
  EXPECT_FALSE(report.Has(fridge->id(), Vulnerability::kDefaultPassword));
  EXPECT_EQ(report.For(fridge->id()).size(), 1u);
}

TEST(ScannerTest, NonDefaultCredentialNotFlagged) {
  ScanWorld world;
  auto* cam = world.dep.AddCamera("cam", {}, "Xk99!long-random");
  world.dep.Start();
  VulnerabilityScanner scanner(
      world.dep.sim(), [&](SimDuration d) { world.dep.RunFor(d); },
      world.dep.attacker());
  const auto report = scanner.Sweep(TargetsOf(world.dep.registry()));
  EXPECT_TRUE(report.For(cam->id()).empty());
}

TEST(ScannerTest, FeedsControllerContexts) {
  // Operator workflow: scan, then mark every hit "unpatched" via the
  // controller. (RegisterDevice already does this from specs; the scan
  // path covers fleets whose flaws are NOT declared up front.)
  core::Deployment dep;  // IoTSec world, but scan before Start().
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();

  VulnerabilityScanner scanner(
      dep.sim(), [&](SimDuration d) { dep.RunFor(d); }, dep.attacker());
  const auto report = scanner.Sweep(TargetsOf(dep.registry()));
  ASSERT_TRUE(report.Has(wemo->id(), devices::Vulnerability::kBackdoor));
  for (const auto& finding : report.findings) {
    auto* dev = dep.registry().ById(finding.target.device);
    ASSERT_NE(dev, nullptr);
    dep.controller().SetDeviceContext(dev->spec().name, "unpatched");
  }
  EXPECT_EQ(dep.controller().view().DeviceContext("wemo").value(),
            "unpatched");
}

// The sweep advances time through Deployment::RunFor, so devices homed
// on every shard answer — a 2-shard deployment reports exactly what the
// 1-shard reference does.
TEST(ScannerTest, ShardedSweepMatchesOneShardSweep) {
  const auto sweep = [](int shards) {
    core::DeploymentOptions opts = ScanWorld::Options();
    opts.shards = shards;
    core::Deployment dep(opts);
    dep.AddCamera("weak-cam", {Vulnerability::kDefaultPassword}, "admin");
    dep.AddCamera("leaky-cam", {Vulnerability::kUnprotectedKeys});
    dep.AddSmartPlug(
        "wemo", "oven_power",
        {Vulnerability::kBackdoor, Vulnerability::kOpenDnsResolver});
    dep.AddLightBulb("clean-bulb");
    dep.AddCamera("cam", {}, "Xk99!long-random");
    int off_shard0 = 0;
    for (const devices::Device* d : dep.registry().All()) {
      if (sdn::ShardOfDevice(d->id(), opts.shards) != 0) ++off_shard0;
    }
    dep.Start();
    VulnerabilityScanner scanner(
        dep.sim(), [&](SimDuration d) { dep.RunFor(d); }, dep.attacker());
    std::set<std::pair<std::string, Vulnerability>> found;
    for (const auto& f : scanner.Sweep(TargetsOf(dep.registry())).findings) {
      found.insert({dep.registry().ById(f.target.device)->spec().name,
                    f.vulnerability});
    }
    return std::make_pair(found, off_shard0);
  };
  const auto one = sweep(1).first;
  const auto [two, two_off] = sweep(2);
  ASSERT_GT(two_off, 0) << "no device homed off shard 0";
  EXPECT_EQ(one.size(), 4u);
  EXPECT_EQ(two, one);
}

}  // namespace
}  // namespace iotsec::scan
