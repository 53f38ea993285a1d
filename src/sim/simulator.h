// Discrete-event simulation engine.
//
// Everything in IoTSec — links, devices, environment dynamics, controllers,
// µmbox boot delays — runs on one virtual clock owned by a Simulator.
// Events fire in (time, insertion-order) order, which makes runs fully
// deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.h"

namespace iotsec::sim {

/// Advances a simulation by a duration: Simulator::RunFor for a plain
/// rig, core::Deployment::RunFor (every shard, through its barriers) for
/// a deployment. Components that drive time themselves take one.
using RunFn = std::function<void(SimDuration)>;

/// Handle for an Every() ticker; lets the owner stop it. One-shot events
/// (At/After) cannot be cancelled and carry no handle.
class EventHandle {
 public:
  EventHandle() = default;

  /// Stops the ticker: its next queued tick is dropped. Safe to call
  /// repeatedly, from inside the tick's own callback, and after the
  /// simulator is gone.
  void Cancel() {
    if (cancelled_) *cancelled_ = true;
  }

  /// True if the ticker has not been cancelled.
  [[nodiscard]] bool Pending() const { return cancelled_ && !*cancelled_; }

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> cancelled)
      : cancelled_(std::move(cancelled)) {}
  // Shared with the queued tick. The tick owns the callback; this flag is
  // all the two share, so a callback holding its own handle is no cycle.
  std::shared_ptr<bool> cancelled_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (clamped to Now()).
  void At(SimTime when, Callback fn);

  /// Schedules `fn` `delay` after Now().
  void After(SimDuration delay, Callback fn) {
    At(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period`, starting one period from now, until the
  /// returned handle is cancelled or the simulator stops.
  EventHandle Every(SimDuration period, Callback fn);

  /// Runs until the queue drains or Stop() is called.
  void Run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances the clock to the deadline.
  void RunUntil(SimTime deadline);

  /// Convenience: RunUntil(Now() + d).
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  /// Stops the run loop after the current event returns.
  void Stop() { stopped_ = true; }

  /// Events fired so far; a cancelled ticker's dropped tick is not one.
  [[nodiscard]] std::uint64_t EventsProcessed() const { return processed_; }

  /// Timestamp of the earliest queued event, or SimTime max when the queue
  /// is empty. Lets a lockstep scheduler skip quanta no shard has work in.
  [[nodiscard]] SimTime NextEventTime() const {
    return queue_.empty() ? ~SimTime{0} : queue_.top().when;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Tick {
    SimDuration period;
    std::shared_ptr<bool> cancelled;
    Callback fn;
  };

  void QueueTick(SimTime when, std::shared_ptr<Tick> tick);
  void PopAndFire();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace iotsec::sim
