// Ablation A4: fuzzer strategy — coverage guidance and abstract models.
//
// §4.2 argues abstract device models + guided fuzzing give good coverage
// of the interaction space. We measure coupling-edge recall vs fuzz
// budget for the four strategy combinations:
//   guided+models | guided+blind | random+models | random+blind
#include <cstdio>

#include "core/iotsec.h"

using namespace iotsec;

namespace {

struct Testbed {
  sim::Simulator sim;
  std::unique_ptr<env::Environment> env = env::MakeSmartHomeEnvironment();
  devices::DeviceRegistry registry;
  std::vector<devices::Device*> fleet;
  learn::WorldModel world;
  DeviceId next_id = 1;

  Testbed() {
    env->AttachTo(sim);
    Add<devices::SmartPlug>("wemo", devices::DeviceClass::kSmartPlug,
                            "oven_power");
    Add<devices::LightBulb>("hue", devices::DeviceClass::kLightBulb);
    Add<devices::LightSensor>("lux", devices::DeviceClass::kLightSensor);
    Add<devices::FireAlarm>("protect", devices::DeviceClass::kFireAlarm);
    Add<devices::WindowActuator>("window",
                                 devices::DeviceClass::kWindowActuator);
    Add<devices::SmartOven>("oven", devices::DeviceClass::kSmartOven);
    // The window stays in the fleet but out of the scored world model:
    // its cooling influence on temperature never crosses a discretization
    // threshold (venting toward 12C cannot reach the <10C "cold" band),
    // so the transitive closure would credit it with physically
    // unobservable edges and cap recall below 1 for every strategy.
    world.actuates = {{"wemo", "oven_power"},
                      {"hue", "bulb_on"},
                      {"oven", "oven_power"}};
    world.senses = {{"lux", "illuminance"}, {"protect", "smoke"}};
  }

  template <typename T, typename... Args>
  void Add(const char* name, devices::DeviceClass cls, Args&&... args) {
    devices::DeviceSpec spec;
    spec.id = next_id++;
    spec.name = name;
    spec.cls = cls;
    spec.mac = net::MacAddress::FromId(spec.id);
    spec.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(spec.id));
    auto dev = std::make_unique<T>(spec, sim, env.get(),
                                   std::forward<Args>(args)...);
    auto* ptr = registry.Add(std::move(dev));
    fleet.push_back(ptr);
    ptr->Start();
  }
};

double RecallAt(bool guided, bool models, int rounds, std::uint64_t seed) {
  Testbed bed;
  learn::InteractionFuzzer fuzzer(
      bed.sim, [&](SimDuration d) { bed.sim.RunFor(d); }, *bed.env,
      bed.fleet, learn::ModelLibrary::Builtin(), bed.world);
  learn::FuzzConfig config;
  config.rounds = rounds;
  config.settle_seconds = 150;
  config.coverage_guided = guided;
  config.use_models = models;
  config.seed = seed;
  return fuzzer.Run(config).recall;
}

}  // namespace

int main() {
  std::printf("=== Ablation A4: fuzzer strategy vs coupling recall ===\n\n");
  std::printf("%-8s %-16s %-16s %-16s %-16s\n", "rounds", "guided+models",
              "guided+blind", "random+models", "random+blind");

  double best_final = 0;
  double blind_final = 0;
  double best_mid = 0;
  double blind_mid = 0;
  for (const int rounds : {5, 10, 20, 40, 80}) {
    double cells[4] = {0, 0, 0, 0};
    const int kSeeds = 3;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      cells[0] += RecallAt(true, true, rounds, seed);
      cells[1] += RecallAt(true, false, rounds, seed);
      cells[2] += RecallAt(false, true, rounds, seed);
      cells[3] += RecallAt(false, false, rounds, seed);
    }
    std::printf("%-8d %-16.2f %-16.2f %-16.2f %-16.2f\n", rounds,
                cells[0] / kSeeds, cells[1] / kSeeds, cells[2] / kSeeds,
                cells[3] / kSeeds);
    if (rounds == 20) {
      best_mid = cells[0] / kSeeds;
      blind_mid = cells[3] / kSeeds;
    }
    if (rounds == 80) {
      best_final = cells[0] / kSeeds;
      blind_final = cells[3] / kSeeds;
    }
  }

  std::printf("\n(recall = fraction of ground-truth coupling edges "
              "rediscovered;\n guided exploration covers the (device, "
              "command) space uniformly,\n models shrink the command "
              "alphabet to what each class accepts)\n");

  const bool shape =
      best_final >= 0.9 && best_final >= blind_final && best_mid > blind_mid;
  std::printf("shape check vs paper (guided+models reaches ~full recall "
              "fastest): %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
