// Table 2 reproduction: cross-device policy counts.
//
// The paper's Table 2 counts cross-device IFTTT dependencies for three
// popular devices (NEST Protect: 188, Wemo Insight: 227, Scout Alarm: 63)
// and gives a typical example for each. We load the recipe corpus, count
// dependencies per device, check the paper's typical examples are
// present, and then show what recipes alone miss: the *implicit*
// couplings through the physical environment, rediscovered by the fuzzer.
#include <cstdio>

#include "core/iotsec.h"

using namespace iotsec;

int main() {
  std::printf("=== Table 2: cross-device policy counts ===\n\n");

  policy::IftttEngine engine;
  for (auto& recipe : policy::BuildPaperRecipeCorpus()) {
    engine.Add(std::move(recipe));
  }
  const auto counts = engine.MentionCounts();

  struct Row {
    const char* device;
    std::size_t paper;
    const char* example;
  };
  const Row rows[] = {
      {"NEST Protect", 188,
       "If Nest Protect detects smoke, then turn Philips hue lights on."},
      {"WeMo Insight", 227,
       "Turn off WeMo Insight if SmartThings shows nobody is at home."},
      {"Scout Alarm", 63,
       "Activate your Manything Camera if Alarm is Triggered."},
  };

  std::printf("%-16s %-10s %-10s %s\n", "Device", "Paper #", "Corpus #",
              "Typical example");
  for (const auto& row : rows) {
    const auto it = counts.find(row.device);
    const std::size_t measured = it == counts.end() ? 0 : it->second;
    std::printf("%-16s %-10zu %-10zu %s\n", row.device, row.paper, measured,
                row.example);
  }

  // The three examples from the paper exist verbatim in the corpus.
  const auto nest_fired = engine.Fire("NEST Protect", "smoke");
  const auto smartthings_fired = engine.Fire("SmartThings", "nobody_home");
  const auto scout_fired = engine.Fire("Scout Alarm", "triggered");
  std::printf("\npaper examples present: nest-smoke->hue %s, "
              "smartthings-away->wemo %s, scout-trigger->camera %s\n",
              nest_fired.empty() ? "NO" : "yes",
              smartthings_fired.empty() ? "NO" : "yes",
              scout_fired.empty() ? "NO" : "yes");

  const auto conflicts = engine.DetectConflicts();
  std::printf("recipe conflicts lurking in the corpus (the §3.1 problem): "
              "%zu pairs\n",
              conflicts.size());

  // ---- What the explicit recipe graph cannot see: implicit couplings.
  std::printf("\n-- implicit (physical) dependencies, fuzzed from the "
              "testbed --\n");
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
    return ptr;
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
  add(std::make_unique<devices::SmartPlug>(
      spec("wemo-insight", devices::DeviceClass::kSmartPlug), sim, env.get(),
      "oven_power"));
  add(std::make_unique<devices::FireAlarm>(
      spec("nest-protect", devices::DeviceClass::kFireAlarm), sim,
      env.get()));
  add(std::make_unique<devices::LightBulb>(
      spec("hue", devices::DeviceClass::kLightBulb), sim, env.get()));
  add(std::make_unique<devices::LightSensor>(
      spec("scout-lux", devices::DeviceClass::kLightSensor), sim, env.get()));

  learn::WorldModel world;
  world.actuates = {{"wemo-insight", "oven_power"}, {"hue", "bulb_on"}};
  world.senses = {{"nest-protect", "smoke"}, {"scout-lux", "illuminance"}};
  learn::InteractionFuzzer fuzzer(
      sim, [&](SimDuration d) { sim.RunFor(d); }, *env, fleet,
      learn::ModelLibrary::Builtin(), world);
  learn::FuzzConfig config;
  config.rounds = 40;
  config.settle_seconds = 150;
  const auto report = fuzzer.Run(config);

  std::size_t implicit_dev_edges = 0;
  for (const auto& [actor, observed] : report.discovered) {
    if (observed.rfind("dev:", 0) == 0) {
      std::printf("  %-14s ~~> %-14s (through the physical world)\n",
                  actor.c_str(), observed.c_str() + 4);
      ++implicit_dev_edges;
    }
  }
  std::printf("\n%zu implicit device->device couplings found "
              "(recall %.0f%% of ground truth) — none of these appear in "
              "any recipe.\n",
              implicit_dev_edges, 100 * report.recall);

  const bool ok = implicit_dev_edges >= 2 && !nest_fired.empty() &&
                  counts.at("NEST Protect") >= 188 &&
                  counts.at("WeMo Insight") >= 227 &&
                  counts.at("Scout Alarm") >= 63;
  std::printf("shape check vs paper: %s\n", ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
