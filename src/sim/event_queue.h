// Pending-event queues for the discrete-event simulator.
//
// The ordering contract every EventQueue honors exactly: events pop in
// ascending (time, seq) order — seq is the scheduling sequence number, so
// same-instant events run FIFO in the order they were scheduled.
//
// A queue orders events but never holds their code: a SimEvent is the
// 24-byte, trivially copyable triple (time, seq, slot), where `slot` names
// the Simulator-owned storage of the event's callable (simulator.h). Heaps,
// bucket moves and rebuilds therefore copy plain words.
//
// `CalendarEventQueue` is the simulator's scheduler: a bucketed calendar
// queue (R. Brown, CACM '88) whose push/pop are amortized O(1) when event
// times are spread across the horizon, instead of a binary heap's O(log n) —
// with millions of in-flight events at 100k servers that difference
// dominates the scheduler. A plain binary heap is kept as the ordering
// oracle in tests/sim_differential_test.cc.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace configerator {

struct SimEvent {
  SimTime time = 0;
  uint64_t seq = 0;   // Tie-break: FIFO among same-time events.
  uint32_t slot = 0;  // The Simulator's storage slot for the callable.
};

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void Push(SimEvent event) = 0;
  // Pops the globally-minimal event by (time, seq). Precondition: !empty().
  virtual SimEvent PopMin() = 0;
  // Timestamp of the next event to pop. Precondition: !empty(). Non-const:
  // the calendar queue may advance its cursor to locate the minimum.
  virtual SimTime MinTime() = 0;
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }
};

// Bucketed calendar queue with three tiers:
//
//   near_     min-heap of every event with time <  base_
//   buckets_  ring of width_-wide windows covering [base_, base_ + N*width_)
//   overflow_ min-heap of events at or beyond the ring horizon
//
// Push drops an event into its window in O(1) (heap push into near_/overflow_
// at the edges). PopMin serves from near_; when near_ drains, the earliest
// non-empty ring bucket — one width_-wide window — is heapified into near_
// and base_ advances past it, pulling newly-in-horizon overflow events into
// the ring. Every event therefore passes through the near_ heap, but that
// heap only ever holds one window's worth of events, so its log factor is
// over the bucket occupancy (~O(1) after resize), not the queue size.
//
// The queue resizes (amortized O(1)) to keep bucket occupancy constant:
// bucket count tracks the queue size and width_ tracks the mean inter-event
// gap. Degenerate schedules (every event at one instant, or one far-future
// straggler) collapse to plain heap behavior — slower, never incorrect.
class CalendarEventQueue : public EventQueue {
 public:
  CalendarEventQueue();

  void Push(SimEvent event) override;
  SimEvent PopMin() override;
  SimTime MinTime() override;
  size_t size() const override { return size_; }

  // Introspection for tests and benches.
  size_t bucket_count() const { return buckets_.size(); }
  SimTime bucket_width() const { return width_; }
  uint64_t rebuilds() const { return rebuilds_; }

 private:
  // Refills near_ from the ring/overflow. Postcondition: near_ is non-empty
  // iff size_ > 0, and near_ holds exactly the events with time < base_.
  void EnsureNear();
  // Moves overflow events that now fall inside the ring horizon into their
  // buckets.
  void MigrateOverflow();
  // Rebuilds with ~`target_buckets` buckets and a width fit to the current
  // event-time span. Collects every pending event and redistributes.
  void Rebuild(size_t target_buckets);
  // Ring slot for `time`, valid when InHorizon(time).
  size_t SlotFor(SimTime time) const {
    return (head_ + static_cast<size_t>((time - base_) / width_)) %
           buckets_.size();
  }
  bool InHorizon(SimTime time) const {
    // Division form: base_ + N*width_ can overflow SimTime for far-future
    // widths, (time - base_) / width_ cannot (time >= base_ here).
    return static_cast<uint64_t>((time - base_) / width_) < buckets_.size();
  }

  std::vector<SimEvent> near_;
  std::vector<std::vector<SimEvent>> buckets_;
  std::vector<SimEvent> overflow_;
  SimTime width_ = kSimMillisecond;
  SimTime base_ = 0;   // Start of the ring head's window; near_ holds < base_.
  size_t head_ = 0;    // Ring index of the window starting at base_.
  size_t size_ = 0;    // Total events across all three tiers.
  size_t ring_size_ = 0;
  uint64_t rebuilds_ = 0;
};

}  // namespace configerator

#endif  // SRC_SIM_EVENT_QUEUE_H_
