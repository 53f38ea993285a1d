// Learning pipeline walkthrough (§4): fuzz an instrumented testbed to
// discover implicit cross-device couplings, derive the attack graph and a
// multi-stage attack plan, then share the resulting signature through the
// crowd-sourced repository.
//
//   $ ./example_learning_pipeline
#include <cstdio>

#include "core/iotsec.h"
#include "learn/synthesis.h"

using namespace iotsec;

int main() {
  std::printf("== IoTSec learning pipeline ==\n");

  // ---- An instrumented testbed: devices + physical environment.
  sim::Simulator sim;
  auto env = env::MakeSmartHomeEnvironment();
  env->AttachTo(sim);
  devices::DeviceRegistry registry;
  std::vector<devices::Device*> fleet;
  DeviceId next_id = 1;

  auto spec = [&](const std::string& name, devices::DeviceClass cls,
                  std::set<devices::Vulnerability> vulns = {}) {
    devices::DeviceSpec s;
    s.id = next_id++;
    s.name = name;
    s.cls = cls;
    s.mac = net::MacAddress::FromId(s.id);
    s.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(s.id));
    s.vulns = std::move(vulns);
    return s;
  };
  auto add = [&](std::unique_ptr<devices::Device> d) {
    auto* ptr = registry.Add(std::move(d));
    fleet.push_back(ptr);
    ptr->Start();
    return ptr;
  };
  add(std::make_unique<devices::SmartPlug>(
      spec("wemo", devices::DeviceClass::kSmartPlug,
           {devices::Vulnerability::kBackdoor}),
      sim, env.get(), "oven_power"));
  add(std::make_unique<devices::LightBulb>(
      spec("hue", devices::DeviceClass::kLightBulb), sim, env.get()));
  add(std::make_unique<devices::LightSensor>(
      spec("lux", devices::DeviceClass::kLightSensor), sim, env.get()));
  add(std::make_unique<devices::FireAlarm>(
      spec("protect", devices::DeviceClass::kFireAlarm), sim, env.get()));
  add(std::make_unique<devices::WindowActuator>(
      spec("window", devices::DeviceClass::kWindowActuator), sim, env.get()));

  // ---- Step 1: fuzz to discover implicit couplings.
  learn::WorldModel world;
  world.actuates = {{"wemo", "oven_power"}, {"hue", "bulb_on"},
                    {"window", "window_open"}};
  world.senses = {{"lux", "illuminance"}, {"protect", "smoke"}};
  learn::InteractionFuzzer fuzzer(
      sim, [&](SimDuration d) { sim.RunFor(d); }, *env, fleet,
      learn::ModelLibrary::Builtin(), world);
  learn::FuzzConfig config;
  config.rounds = 60;
  config.settle_seconds = 150;
  const auto report = fuzzer.Run(config);

  std::printf("\nstep 1: fuzzing (%d commands issued)\n",
              report.commands_issued);
  std::printf("  discovered %zu coupling edges "
              "(recall %.0f%%, precision %.0f%%):\n",
              report.discovered.size(), 100 * report.recall,
              100 * report.precision);
  for (const auto& [actor, observed] : report.discovered) {
    std::printf("    %-8s -> %s\n", actor.c_str(), observed.c_str());
  }

  // ---- Step 2: attack-graph analysis over the discovered couplings.
  const std::vector<std::pair<std::string, std::string>> automation = {
      // The homeowner's IFTTT recipe: "if it gets hot, open the window".
      {"protect", "window"},
  };
  auto graph = learn::BuildAttackGraph(registry, report.discovered,
                                       automation);
  std::printf("\nstep 2: attack graph (%zu exploits derived)\n",
              graph.exploits().size());
  const auto plan = graph.FindPlan("physical_entry");
  if (plan) {
    std::printf("  multi-stage plan to physical entry:\n");
    int step = 1;
    for (const auto* exploit : plan->steps) {
      std::printf("    %d. %s\n", step++, exploit->name.c_str());
    }
  } else {
    std::printf("  no path to physical entry (deployment is safe)\n");
  }

  // ---- Step 3: share the backdoor signature through the crowd repo.
  std::printf("\nstep 3: crowd-sourcing the signature\n");
  learn::CrowdRepo repo;
  int delivered = 0;
  repo.Subscribe("Wemo-Insight", "other-home", [&](const auto& sig) {
    ++delivered;
    std::printf("  subscriber 'other-home' received sid %u: %s\n",
                sig.rule.sid, sig.rule.msg.c_str());
  });
  learn::SignatureReport observed;
  observed.sku = "Wemo-Insight";
  observed.contributor = "victim-home@example";
  observed.observables = {{"src_ip", "10.0.0.200"}, {"site", "my-house"}};
  observed.rule_text =
      "block udp any any -> any 5009 (msg:\"Wemo backdoor actuation\"; "
      "sid:9100; iot_backdoor; )";
  const auto published = repo.Publish(observed);
  std::printf("  published (anonymized) -> id %llu\n",
              static_cast<unsigned long long>(published.id));
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(published.id, voter, true);
  }
  std::printf("  after quorum voting: %zu accepted signature(s), "
              "%d notification(s) delivered\n",
              repo.AcceptedFor("Wemo-Insight").size(), delivered);

  // ---- Step 4: close the loop — synthesize the policy that cuts the
  // discovered attack path, and verify it does.
  std::printf("\nstep 4: policy synthesis from the attack graph\n");
  const auto lan = net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24);
  const auto synth =
      learn::SynthesizePolicy(registry, graph, {"physical_entry"}, lan);
  std::printf("  %zu rules synthesized, %zu entry exploits neutralized\n",
              synth.policy.rules().size(), synth.mitigated_exploits.size());
  for (const auto& name : synth.mitigated_exploits) {
    std::printf("    cut: %s\n", name.c_str());
  }
  std::printf("  physical entry still reachable after mitigation: %s\n",
              synth.residual_goals.count("physical_entry") ? "YES (residual)"
                                                           : "no");
  return 0;
}
