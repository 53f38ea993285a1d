#include "env/environment.h"

#include <stdexcept>

namespace iotsec::env {

VarDef VarDef::Boolean(std::string name, bool initial) {
  VarDef def;
  def.name = std::move(name);
  def.initial = initial ? 1.0 : 0.0;
  def.thresholds = {0.5};
  def.level_names = {"off", "on"};
  return def;
}

VarDef VarDef::Continuous(std::string name, double initial,
                          std::vector<double> thresholds,
                          std::vector<std::string> level_names) {
  VarDef def;
  def.name = std::move(name);
  def.initial = initial;
  def.thresholds = std::move(thresholds);
  def.level_names = std::move(level_names);
  if (def.level_names.size() != def.thresholds.size() + 1) {
    throw std::invalid_argument("level_names must be thresholds+1 for " +
                                def.name);
  }
  return def;
}

void Environment::Define(VarDef def) {
  if (def.thresholds.empty()) {
    def.thresholds = {0.5};
    if (def.level_names.empty()) def.level_names = {"off", "on"};
  }
  if (def.level_names.size() != def.thresholds.size() + 1) {
    throw std::invalid_argument("level_names must be thresholds+1 for " +
                                def.name);
  }
  Var var;
  var.value = def.initial;
  var.level = LevelFor(def, def.initial);
  var.def = std::make_shared<const VarDef>(std::move(def));
  vars_[var.def->name] = std::move(var);
}

bool Environment::Has(const std::string& name) const {
  return vars_.count(name) > 0;
}

const Environment::Var& Environment::Get(const std::string& name) const {
  const auto it = vars_.find(name);
  if (it == vars_.end()) {
    throw std::out_of_range("undefined environment variable: " + name);
  }
  return it->second;
}

double Environment::Value(const std::string& name) const {
  return Get(name).value;
}

int Environment::Level(const std::string& name) const {
  return Get(name).level;
}

const std::string& Environment::LevelName(const std::string& name) const {
  const Var& var = Get(name);
  return var.def->level_names[static_cast<std::size_t>(var.level)];
}

int Environment::LevelCount(const std::string& name) const {
  return static_cast<int>(Get(name).def->level_names.size());
}

const std::vector<std::string>& Environment::LevelNames(
    const std::string& name) const {
  return Get(name).def->level_names;
}

int Environment::LevelFor(const VarDef& def, double value) {
  int level = 0;
  for (double t : def.thresholds) {
    if (value >= t) ++level;
    else break;
  }
  return level;
}

void Environment::SetValue(const std::string& name, double value,
                           SimTime now) {
  auto it = vars_.find(name);
  if (it == vars_.end()) {
    throw std::out_of_range("undefined environment variable: " + name);
  }
  if (write_capture_) {
    // Replica in a deployment: the write belongs to the owner
    // environment and is applied there at the next quantum barrier.
    write_capture_(name, value, now);
    return;
  }
  if (now > now_) now_ = now;
  Var& var = it->second;
  var.value = value;
  ++version_;
  const int new_level = LevelFor(*var.def, value);
  if (new_level == var.level) return;
  const LevelChange change{name, var.level, new_level, now};
  var.level = new_level;
  // Copy listeners: a listener may subscribe/unsubscribe reentrantly.
  auto listeners = listeners_;
  for (auto& [id, fn] : listeners) fn(change);
}

void Environment::AddDynamics(std::unique_ptr<Dynamics> d) {
  dynamics_.push_back(std::move(d));
}

std::vector<std::pair<std::string, std::string>>
Environment::GroundTruthEdges() const {
  std::vector<std::pair<std::string, std::string>> edges;
  for (const auto& d : dynamics_) {
    for (auto& e : d->CausalEdges()) edges.push_back(std::move(e));
  }
  return edges;
}

int Environment::Subscribe(Listener listener) {
  const int id = next_listener_id_++;
  listeners_[id] = std::move(listener);
  return id;
}

void Environment::Unsubscribe(int id) { listeners_.erase(id); }

void Environment::Step(SimTime now, double dt_seconds) {
  if (now > now_) now_ = now;
  for (const auto& d : dynamics_) d->Step(*this, dt_seconds);
}

void Environment::ResetToInitial(SimTime now) {
  for (auto& [name, var] : vars_) {
    SetValue(name, var.def->initial, now);
  }
}

void Environment::AttachTo(sim::Simulator& simulator, SimDuration tick) {
  const double dt = static_cast<double>(tick) / kSecond;
  simulator.Every(tick, [this, &simulator, dt] {
    Step(simulator.Now(), dt);
  });
}

std::map<std::string, int> Environment::SnapshotLevels() const {
  std::map<std::string, int> out;
  for (const auto& [name, var] : vars_) out[name] = var.level;
  return out;
}

std::vector<std::string> Environment::VariableNames() const {
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& [name, _] : vars_) out.push_back(name);
  return out;
}

std::unique_ptr<Environment> Environment::Replicate() const {
  auto replica = std::make_unique<Environment>();
  replica->vars_ = vars_;  // shared defs + current values/levels
  replica->now_ = now_;
  return replica;
}

void Environment::SyncFrom(const Environment& owner, SimTime now) {
  if (now > now_) now_ = now;
  // vars_ is a std::map keyed by name, so iteration — and therefore the
  // order replica listeners observe multi-variable changes — is the same
  // everywhere.
  for (const auto& [name, theirs] : owner.vars_) {
    auto it = vars_.find(name);
    if (it == vars_.end()) continue;
    Var& mine = it->second;
    mine.value = theirs.value;
    if (theirs.level == mine.level) continue;
    const LevelChange change{name, mine.level, theirs.level, now};
    mine.level = theirs.level;
    auto listeners = listeners_;
    for (auto& [id, fn] : listeners) fn(change);
  }
}

}  // namespace iotsec::env
