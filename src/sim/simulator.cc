#include "src/sim/simulator.h"

#include <utility>

namespace configerator {

Simulator::Simulator() : queue_(std::make_unique<CalendarEventQueue>()) {}

Simulator::Simulator(std::unique_ptr<EventQueue> queue)
    : queue_(std::move(queue)) {}

void Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  queue_->Push(SimEvent{when, next_seq_++, std::move(fn)});
}

bool Simulator::Step() {
  if (queue_->empty()) {
    return false;
  }
  SimEvent event = queue_->PopMin();
  now_ = event.time;
  ++processed_;
  event.fn();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_->empty() && queue_->MinTime() <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
}

}  // namespace configerator
