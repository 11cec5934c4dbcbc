#include "src/sim/simulator.h"

#include <utility>

namespace configerator {

Simulator::Simulator() : queue_(std::make_unique<CalendarEventQueue>()) {}

Simulator::Simulator(std::unique_ptr<EventQueue> queue)
    : queue_(std::move(queue)) {}

Simulator::~Simulator() {
  for (std::unique_ptr<Slot[]>& chunk : chunks_) {
    for (uint32_t i = 0; i < kChunkSlots; ++i) {
      Slot& slot = chunk[i];
      if (slot.op != nullptr) {
        slot.op(slot.bytes, /*run=*/false);
      }
    }
  }
}

uint32_t Simulator::AcquireSlot() {
  if (free_slots_.empty()) {
    uint32_t base = static_cast<uint32_t>(chunks_.size()) * kChunkSlots;
    chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[kChunkSlots]));
    for (uint32_t i = kChunkSlots; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }
  uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void Simulator::Enqueue(SimTime when, uint32_t index) {
  if (when < now_) {
    when = now_;
  }
  queue_->Push(SimEvent{when, next_seq_++, index});
}

bool Simulator::Step() {
  if (queue_->empty()) {
    return false;
  }
  SimEvent event = queue_->PopMin();
  now_ = event.time;
  ++processed_;
  // Chunks never move, so the slot stays put while its callable schedules
  // more events; it is freed only after the callable is destroyed.
  Slot& slot = SlotAt(event.slot);
  slot.op(slot.bytes, /*run=*/true);
  slot.op = nullptr;
  free_slots_.push_back(event.slot);
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
