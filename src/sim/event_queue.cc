#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace configerator {

namespace {

// "a pops later than b" — used with the std::*_heap algorithms, which build a
// max-heap with respect to the comparator, so the top is the (time, seq)
// minimum.
struct Later {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

constexpr size_t kMinBuckets = 64;
constexpr size_t kMaxBuckets = size_t{1} << 21;

// Largest multiple of `width` at or below `t` (floor, not truncation — safe
// for negative times even though the simulator never schedules one).
SimTime FloorAlign(SimTime t, SimTime width) {
  SimTime base = t - t % width;
  if (base > t) {
    base -= width;
  }
  return base;
}

}  // namespace

CalendarEventQueue::CalendarEventQueue() { buckets_.assign(kMinBuckets, {}); }

void CalendarEventQueue::Push(SimEvent event) {
  ++size_;
  if (event.time < base_) {
    // The cursor already advanced past this window (RunUntil peeks ahead of
    // the clock); the near heap absorbs late arrivals exactly.
    near_.push_back(std::move(event));
    std::push_heap(near_.begin(), near_.end(), Later{});
  } else if (InHorizon(event.time)) {
    buckets_[SlotFor(event.time)].push_back(std::move(event));
    ++ring_size_;
  } else {
    overflow_.push_back(std::move(event));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
  if (size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    Rebuild(buckets_.size() * 2);
  }
}

SimEvent CalendarEventQueue::PopMin() {
  EnsureNear();
  std::pop_heap(near_.begin(), near_.end(), Later{});
  SimEvent event = std::move(near_.back());
  near_.pop_back();
  --size_;
  // Hysteresis: grow at occupancy 2, shrink below 1/8 — a queue oscillating
  // around one size never thrashes rebuilds.
  if (buckets_.size() > kMinBuckets && size_ * 8 < buckets_.size()) {
    Rebuild(size_ * 2);
  }
  return event;
}

SimTime CalendarEventQueue::MinTime() {
  EnsureNear();
  return near_.front().time;
}

void CalendarEventQueue::EnsureNear() {
  while (near_.empty() && size_ > 0) {
    if (ring_size_ == 0) {
      // Everything pending sits beyond the horizon: re-anchor the ring at
      // the overflow minimum instead of stepping empty windows toward it.
      base_ = FloorAlign(overflow_.front().time, width_);
      MigrateOverflow();
      continue;
    }
    while (buckets_[head_].empty()) {
      head_ = (head_ + 1) % buckets_.size();
      base_ += width_;
    }
    // Drain one window into the near heap. Everything else is >= the new
    // base_, so near_ now holds exactly the globally-earliest events.
    near_.swap(buckets_[head_]);
    ring_size_ -= near_.size();
    std::make_heap(near_.begin(), near_.end(), Later{});
    head_ = (head_ + 1) % buckets_.size();
    base_ += width_;
    MigrateOverflow();
  }
}

void CalendarEventQueue::MigrateOverflow() {
  while (!overflow_.empty() && InHorizon(overflow_.front().time)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    SimEvent event = std::move(overflow_.back());
    overflow_.pop_back();
    buckets_[SlotFor(event.time)].push_back(std::move(event));
    ++ring_size_;
  }
}

void CalendarEventQueue::Rebuild(size_t target_buckets) {
  ++rebuilds_;
  std::vector<SimEvent> all;
  all.reserve(size_);
  for (SimEvent& event : near_) {
    all.push_back(std::move(event));
  }
  near_.clear();
  for (std::vector<SimEvent>& bucket : buckets_) {
    for (SimEvent& event : bucket) {
      all.push_back(std::move(event));
    }
  }
  for (SimEvent& event : overflow_) {
    all.push_back(std::move(event));
  }
  overflow_.clear();
  ring_size_ = 0;

  size_t count = kMinBuckets;
  while (count < target_buckets && count < kMaxBuckets) {
    count <<= 1;
  }
  buckets_.assign(count, {});
  head_ = 0;

  if (all.empty()) {
    width_ = kSimMillisecond;
    return;
  }
  SimTime lo = all.front().time;
  SimTime hi = lo;
  for (const SimEvent& event : all) {
    lo = std::min(lo, event.time);
    hi = std::max(hi, event.time);
  }
  // Width tracks the mean inter-event gap so steady-state occupancy stays
  // O(1) per bucket. A zero span (every event at one instant) degrades to a
  // single bucket, i.e. plain heap behavior.
  width_ = std::max<SimTime>(1, (hi - lo) / static_cast<SimTime>(count) + 1);
  base_ = FloorAlign(lo, width_);
  for (SimEvent& event : all) {
    if (InHorizon(event.time)) {
      buckets_[SlotFor(event.time)].push_back(std::move(event));
      ++ring_size_;
    } else {
      overflow_.push_back(std::move(event));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
  }
}

}  // namespace configerator
