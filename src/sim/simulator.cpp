#include "sim/simulator.h"

namespace iotsec::sim {

void Simulator::At(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  queue_.push(Event{when, seq_++, std::move(fn)});
}

EventHandle Simulator::Every(SimDuration period, Callback fn) {
  auto cancelled = std::make_shared<bool>(false);
  QueueTick(now_ + period,
            std::make_shared<Tick>(Tick{period, cancelled, std::move(fn)}));
  return EventHandle(std::move(cancelled));
}

// Each queued tick owns the ticker and re-queues it after fn() returns, so
// a tick's (time, seq) is drawn after everything fn() scheduled.
void Simulator::QueueTick(SimTime when, std::shared_ptr<Tick> tick) {
  Callback fire = [this, tick = std::move(tick)] {
    if (*tick->cancelled) {
      --processed_;  // dropped, not fired
      return;
    }
    tick->fn();
    if (*tick->cancelled || stopped_) return;
    QueueTick(now_ + tick->period, tick);
  };
  queue_.push(Event{when, seq_++, std::move(fire)});
}

void Simulator::PopAndFire() {
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  ++processed_;
  ev.fn();
}

void Simulator::Run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    PopAndFire();
  }
}

void Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.top().when <= deadline) {
    PopAndFire();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace iotsec::sim
