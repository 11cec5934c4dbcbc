// Discrete-event simulator. The distribution experiments (Figs 14, the
// PackageVessel and push-vs-pull benches) run the real protocol code over
// this clock instead of wall time, so a fleet of hundreds of thousands of
// servers across continents fits on a laptop.
//
// Events live in a pool of slots the simulator owns and reuses. Schedule
// constructs the callable in place in a free slot and queues only
// (time, seq, slot); Step runs the callable where it lies, destroys it and
// returns the slot to a free list. A slot holds kInlineBytes of callable,
// which fits every delivery of a commit's fan-out (network.h: destination,
// link and payload), so those cost no heap allocation once the pool has
// grown to the peak number of pending events. A larger callable (a few
// control-plane closures that capture strings and callbacks by value, such
// as a write's hop to the leader or a subscription) spills to one heap
// allocation, owned by a pointer in its slot. Slots never move: the pool
// grows by fixed-size chunks, so a running callable may schedule more
// events.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace configerator {

class Simulator {
 public:
  // Schedules on a CalendarEventQueue.
  Simulator();
  // Schedules on `queue` instead: the seam through which the scheduler
  // differential battery plugs in its reference binary heap.
  explicit Simulator(std::unique_ptr<EventQueue> queue);
  // Destroys the callables of events still pending.
  ~Simulator();

  // Pending callables point into the slot pool; pin the object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` (any callable taking no arguments) to run `delay` from
  // now (clamped to >= 0). Events at the same instant run in scheduling
  // order (stable).
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) > kInlineBytes || alignof(Fn) > kSlotAlign) {
      // Too big for a slot: the slot holds an owning pointer instead.
      ScheduleAt(when, [spilled = std::make_unique<Fn>(std::forward<F>(fn))] {
        (*spilled)();
      });
    } else {
      uint32_t index = AcquireSlot();
      Slot& slot = SlotAt(index);
      ::new (static_cast<void*>(slot.bytes)) Fn(std::forward<F>(fn));
      slot.op = &SlotOp<Fn>;
      Enqueue(when, index);
    }
  }

  // Runs the next event; returns false if the queue is empty.
  bool Step();

  // Runs events with timestamp <= `deadline`; the clock ends at `deadline`.
  void RunUntil(SimTime deadline);

  // Runs until no events remain (or `max_events` processed).
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  size_t pending_events() const { return queue_->size(); }
  uint64_t processed_events() const { return processed_; }

 private:
  // Callable bytes stored in place; sized for a watch delivery (a
  // std::function, a shared txn and a trace context behind the network's
  // destination, link and stats epoch).
  static constexpr size_t kInlineBytes = 96;
  static constexpr size_t kSlotAlign = alignof(std::max_align_t);
  static constexpr uint32_t kChunkSlots = 1024;

  struct Slot {
    alignas(kSlotAlign) unsigned char bytes[kInlineBytes];
    // Runs the callable in `bytes` if `run`, then destroys it. nullptr
    // while the slot is free.
    void (*op)(void* bytes, bool run) = nullptr;
  };

  template <typename Fn>
  static void SlotOp(void* bytes, bool run) {
    Fn* fn = std::launder(static_cast<Fn*>(bytes));
    if (run) {
      (*fn)();
    }
    fn->~Fn();
  }

  Slot& SlotAt(uint32_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  uint32_t AcquireSlot();
  // Clamps `when` to now and queues the event held in slot `index`.
  void Enqueue(SimTime when, uint32_t index);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::unique_ptr<EventQueue> queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;  // LIFO: the warmest slot goes first.
};

}  // namespace configerator

#endif  // SRC_SIM_SIMULATOR_H_
