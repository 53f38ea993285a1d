#include "learn/fuzzer.h"

#include <algorithm>

namespace iotsec::learn {
namespace {

/// Every command the protocol defines (the no-model alphabet).
std::vector<proto::IotCommand> AllCommands() {
  std::vector<proto::IotCommand> out;
  for (int i = 1; i <= static_cast<int>(proto::IotCommand::kReboot); ++i) {
    out.push_back(static_cast<proto::IotCommand>(i));
  }
  return out;
}

}  // namespace

InteractionFuzzer::InteractionFuzzer(sim::Simulator& simulator,
                                     sim::RunFn run,
                                     env::Environment& environment,
                                     std::vector<devices::Device*> devices,
                                     ModelLibrary library,
                                     WorldModel world)
    : sim_(simulator),
      run_(std::move(run)),
      env_(environment),
      devices_(std::move(devices)),
      library_(std::move(library)),
      world_(std::move(world)) {}

std::set<CouplingEdge> InteractionFuzzer::ComputeGroundTruth() const {
  // Env-level causal closure: var -> set of downstream vars.
  const auto dyn_edges = env_.GroundTruthEdges();
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [src, dst] : dyn_edges) adj[src].insert(dst);

  auto closure = [&](const std::string& start) {
    std::set<std::string> seen{start};
    std::vector<std::string> stack{start};
    while (!stack.empty()) {
      const std::string v = stack.back();
      stack.pop_back();
      const auto it = adj.find(v);
      if (it == adj.end()) continue;
      for (const auto& next : it->second) {
        if (seen.insert(next).second) stack.push_back(next);
      }
    }
    return seen;
  };

  std::set<CouplingEdge> truth;
  for (const auto& [actor, var] : world_.actuates) {
    const auto reachable = closure(var);
    for (const auto& v : reachable) {
      truth.insert({actor, "env:" + v});
    }
    // Sensor devices watching any reachable variable are implicitly
    // coupled to the actor — the paper's bulb->light-sensor case.
    for (const auto& [sensor, sensed_var] : world_.senses) {
      if (sensor == actor) continue;
      if (reachable.count(sensed_var)) {
        truth.insert({actor, "dev:" + sensor});
      }
    }
  }
  return truth;
}

InteractionFuzzer::Snapshot InteractionFuzzer::Capture() const {
  Snapshot snap;
  snap.env_levels = env_.SnapshotLevels();
  for (const devices::Device* d : devices_) {
    snap.device_states[d->spec().name] = d->State();
  }
  return snap;
}

void InteractionFuzzer::ResetWorld() {
  using proto::IotCommand;
  for (devices::Device* d : devices_) {
    // Push every device toward its quiescent state.
    d->Actuate(IotCommand::kTurnOff);
    d->Actuate(IotCommand::kClose);
    d->Actuate(IotCommand::kLock);
  }
  env_.ResetToInitial(sim_.Now());
  run_(kSecond);
}

FuzzReport InteractionFuzzer::Run(const FuzzConfig& config) {
  Rng rng(config.seed);
  FuzzReport report;
  report.ground_truth = ComputeGroundTruth();

  // Build the (device, command) exploration space.
  struct Probe {
    devices::Device* device;
    proto::IotCommand cmd;
    int tried = 0;
  };
  std::vector<Probe> probes;
  const auto all_commands = AllCommands();
  for (devices::Device* d : devices_) {
    const AbstractDeviceModel* model =
        config.use_models ? library_.For(d->spec().cls) : nullptr;
    const auto& alphabet =
        (config.use_models && model != nullptr) ? model->commands
                                                : all_commands;
    for (const auto cmd : alphabet) {
      probes.push_back(Probe{d, cmd, 0});
    }
  }
  if (probes.empty()) return report;

  std::set<CouplingEdge> true_found;
  for (int round = 0; round < config.rounds; ++round) {
    std::size_t pick = 0;
    if (config.coverage_guided) {
      // Least-tried probe; ties broken randomly.
      int best = probes[0].tried;
      std::vector<std::size_t> candidates;
      for (const auto& p : probes) best = std::min(best, p.tried);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (probes[i].tried == best) candidates.push_back(i);
      }
      pick = candidates[rng.NextBelow(candidates.size())];
    } else {
      pick = rng.NextBelow(probes.size());
    }
    Probe& probe = probes[pick];
    ++probe.tried;

    ResetWorld();  // clean attribution: every round starts quiescent
    const Snapshot before = Capture();
    probe.device->Actuate(probe.cmd);
    ++report.commands_issued;
    run_(static_cast<SimDuration>(config.settle_seconds * kSecond));
    const Snapshot after = Capture();

    const std::string& actor = probe.device->spec().name;
    for (const auto& [var, level] : after.env_levels) {
      const auto it = before.env_levels.find(var);
      if (it != before.env_levels.end() && it->second != level) {
        report.discovered.insert({actor, "env:" + var});
      }
    }
    for (const auto& [name, state] : after.device_states) {
      if (name == actor) continue;  // self-transitions are not couplings
      const auto it = before.device_states.find(name);
      if (it != before.device_states.end() && it->second != state) {
        report.discovered.insert({actor, "dev:" + name});
      }
    }

    for (const auto& edge : report.discovered) {
      if (report.ground_truth.count(edge)) true_found.insert(edge);
    }
    report.edges_over_rounds.push_back(true_found.size());
  }

  if (!report.ground_truth.empty()) {
    report.recall = static_cast<double>(true_found.size()) /
                    static_cast<double>(report.ground_truth.size());
  }
  if (!report.discovered.empty()) {
    report.precision = static_cast<double>(true_found.size()) /
                       static_cast<double>(report.discovered.size());
  }
  return report;
}

}  // namespace iotsec::learn
