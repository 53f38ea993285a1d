// Cross-module pipelines the paper implies but never spells out:
//   fuzzer couplings + recipe edges  ->  control-plane partitioning
//   fuzzer couplings + recipes       ->  attack graph -> synthesis
//   DSL-authored policy              ->  live enforcement
#include <gtest/gtest.h>

#include "core/iotsec.h"
#include "learn/synthesis.h"
#include "policy/dsl.h"

namespace iotsec {
namespace {

TEST(PartitionPipelineTest, DiscoveredCouplingsDrivePartitioning) {
  // Two physically separate rooms (the bulb/sensor pair and the
  // plug/alarm pair are coupled; nothing couples across). The §5.1
  // hierarchy should put each coupled group under one local controller.
  sim::Simulator sim;
  auto env = env::MakeSmartHomeEnvironment();
  env->AttachTo(sim);
  devices::DeviceRegistry registry;
  std::vector<devices::Device*> fleet;
  DeviceId next_id = 1;
  auto add = [&](auto dev) {
    auto* ptr = registry.Add(std::move(dev));
    fleet.push_back(ptr);
    ptr->Start();
  };
  auto spec = [&](const char* name, devices::DeviceClass cls) {
    devices::DeviceSpec s;
    s.id = next_id++;
    s.name = name;
    s.cls = cls;
    s.mac = net::MacAddress::FromId(s.id);
    s.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(s.id));
    return s;
  };
  add(std::make_unique<devices::LightBulb>(
      spec("hue", devices::DeviceClass::kLightBulb), sim, env.get()));
  add(std::make_unique<devices::LightSensor>(
      spec("lux", devices::DeviceClass::kLightSensor), sim, env.get()));
  add(std::make_unique<devices::SmartPlug>(
      spec("wemo", devices::DeviceClass::kSmartPlug), sim, env.get(),
      "oven_power"));
  add(std::make_unique<devices::FireAlarm>(
      spec("protect", devices::DeviceClass::kFireAlarm), sim, env.get()));
  add(std::make_unique<devices::SmartLock>(
      spec("lock", devices::DeviceClass::kSmartLock), sim, env.get()));

  learn::WorldModel world;
  world.actuates = {{"hue", "bulb_on"}, {"wemo", "oven_power"}};
  world.senses = {{"lux", "illuminance"}, {"protect", "smoke"}};
  learn::InteractionFuzzer fuzzer(
      sim, [&](SimDuration d) { sim.RunFor(d); }, *env, fleet,
      learn::ModelLibrary::Builtin(), world);
  learn::FuzzConfig config;
  config.rounds = 30;
  config.settle_seconds = 150;
  const auto report = fuzzer.Run(config);

  // Feed device->device couplings into the partitioner.
  std::vector<std::pair<std::string, std::string>> edges;
  for (const auto& [actor, observed] : report.discovered) {
    if (observed.rfind("dev:", 0) == 0) {
      edges.emplace_back(actor, observed.substr(4));
    }
  }
  std::vector<std::string> names;
  for (const auto* d : registry.All()) names.push_back(d->spec().name);
  const auto partitions = control::PartitionByInteraction(names, edges);

  // Expect: {hue, lux}, {wemo, protect}, {lock} — three groups.
  ASSERT_EQ(partitions.size(), 3u);
  auto group_of = [&](const std::string& name) -> const std::vector<std::string>* {
    for (const auto& group : partitions) {
      for (const auto& member : group) {
        if (member == name) return &group;
      }
    }
    return nullptr;
  };
  EXPECT_EQ(group_of("hue"), group_of("lux"));
  EXPECT_EQ(group_of("wemo"), group_of("protect"));
  EXPECT_NE(group_of("hue"), group_of("wemo"));
  EXPECT_EQ(group_of("lock")->size(), 1u);
}

TEST(DslEnforcementTest, TextAuthoredPolicyDrivesTheDataplane) {
  // The operator writes policy as text; it compiles against the live
  // deployment and actually enforces.
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam");
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});

  policy::PostureCatalog catalog;
  catalog.Register("monitor", core::MonitorPosture());
  catalog.Register("quarantine", core::QuarantinePosture());
  catalog.Register("gate",
                   core::ContextGatePosture(proto::IotCommand::kTurnOn,
                                            "device.cam.state",
                                            "person_detected"));
  const std::map<std::string, DeviceId> ids = {{"cam", cam->id()},
                                               {"wemo", wemo->id()}};
  const auto parsed = policy::ParsePolicyText(
      "default monitor\n"
      "rule wemo-gate prio 10 device wemo posture gate\n"
      "rule wemo-quarantine prio 100 device wemo \\\n"
      "     when ctx:wemo == compromised posture quarantine\n",
      ids, catalog);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  dep.UsePolicy(dep.BuildStateSpace(), parsed.policy);
  dep.Start();
  dep.RunFor(kSecond);

  // The gate (from text) blocks an ON with nobody home.
  dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                proto::IotCommand::kTurnOn,
                                wemo->spec().credential, false, nullptr);
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(wemo->State(), "off");

  // The escalation rule (from text) quarantines on compromise.
  dep.controller().SetDeviceContext("wemo", "compromised");
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().PostureProfileOf(wemo->id()), "quarantine");
}

TEST(FullLoopTest, FuzzGraphSynthesizeEnforce) {
  // The complete §4 -> §3 -> §5 loop on one deployment: fuzz the
  // couplings, build the graph with the homeowner's automation, ensure
  // the multi-stage path exists, synthesize, enforce, and verify the
  // first stage dies on the wire.
  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});
  dep.AddFireAlarm("protect");
  dep.AddWindow("window");
  dep.Start();

  learn::WorldModel world;
  world.actuates = {{"wemo", "oven_power"}};
  world.senses = {{"protect", "smoke"}};
  std::vector<devices::Device*> fleet = dep.registry().All();
  learn::InteractionFuzzer fuzzer(
      dep.sim(), [&](SimDuration d) { dep.RunFor(d); }, dep.environment(),
      fleet, learn::ModelLibrary::Builtin(), world);
  learn::FuzzConfig config;
  config.rounds = 20;
  config.settle_seconds = 150;
  const auto report = fuzzer.Run(config);
  ASSERT_TRUE(report.discovered.count({"wemo", "dev:protect"}));

  const std::vector<std::pair<std::string, std::string>> automation = {
      {"protect", "window"}};
  auto graph =
      learn::BuildAttackGraph(dep.registry(), report.discovered, automation);
  ASSERT_TRUE(graph.CanReach("physical_entry"));

  auto synth = learn::SynthesizePolicy(dep.registry(), graph,
                                       {"physical_entry"}, dep.lan_prefix());
  EXPECT_TRUE(synth.residual_goals.empty());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(synth.policy));
  dep.controller().Start();
  dep.RunFor(2 * kSecond);

  dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                proto::IotCommand::kTurnOn, std::nullopt,
                                /*backdoor=*/true, nullptr);
  dep.RunFor(3 * kMinute);
  EXPECT_EQ(wemo->State(), "off");
  EXPECT_FALSE(dep.environment().GetBool("smoke"))
      << "no heat, no smoke, no window automation, no breach";
  EXPECT_EQ(dep.Find("window")->State(), "closed");
}

}  // namespace
}  // namespace iotsec
