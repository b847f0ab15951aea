// Discrete-event loop driving Aorta's simulated world.
//
// All asynchrony in the reproduction — network message delivery, device
// action completion, sensor sampling epochs, probe timeouts — is expressed
// as events on this loop. Events at equal timestamps fire in submission
// order (a monotone sequence number breaks ties), which makes every run
// with a fixed RNG seed fully deterministic.
//
// A system may run several loops side by side (one per shard) under a
// util::LoopGroup, which steps them in lockstep virtual-time windows; each
// individual EventLoop stays single-threaded — only one thread ever runs a
// given loop's events during a window.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "util/time.h"

namespace aorta::util {

// Handle used to cancel a pending event (e.g. a timeout that was beaten by
// the response it guarded).
using EventId = std::uint64_t;

class EventLoop {
 public:
  explicit EventLoop(SimClock* clock) : clock_(clock) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimClock& clock() { return *clock_; }
  TimePoint now() const { return clock_->now(); }

  // Schedule `fn` to run `delay` after the current simulated time.
  EventId schedule(Duration delay, std::function<void()> fn);

  // Schedule `fn` at an absolute simulated time (>= now).
  EventId schedule_at(TimePoint when, std::function<void()> fn);

  // Cancel a pending event. Returns false if it already fired or was
  // cancelled. O(1) amortized: marks a tombstone consumed lazily by the
  // run loop; when tombstones outnumber half the heap the heap is
  // compacted in one pass so long-running workloads that cancel heavily
  // (RPC timeouts beaten by replies) stay bounded.
  bool cancel(EventId id);

  // Run events until the queue is empty or the simulated time would exceed
  // `until`. The clock is advanced to `until` on return.
  void run_until(TimePoint until);

  // Convenience: run for a simulated span from the current time.
  void run_for(Duration span) { run_until(now() + span); }

  // Run until the queue drains completely.
  void run_all();

  // Drop every pending event unrun (the loop's owner is gone).
  void clear();

  // Timestamp of the earliest pending (non-cancelled) event. Returns false
  // when the queue is empty. The LoopGroup barrier scheduler uses this to
  // size the next window.
  bool next_event_time(TimePoint* out);

  // Pending (non-cancelled) event count.
  std::size_t pending() const { return live_.size(); }

  // Total events executed since construction (statistics / tests).
  std::uint64_t executed() const { return executed_; }

  // Tombstone bookkeeping (tests / stats).
  std::size_t tombstones() const { return cancelled_.size(); }
  std::uint64_t compactions() const { return compactions_; }

 private:
  struct Event {
    TimePoint when;
    EventId id;  // also the tie-breaker: lower id fires first at equal time
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  // Pops and runs the earliest event. Precondition: heap non-empty.
  void run_one();
  // Discard cancelled events sitting at the top of the heap.
  void prune_top();
  // One-pass removal of every tombstoned event once tombstones exceed half
  // the heap. Clears the tombstone set (stale tombstones for events that
  // already fired vanish with it).
  void maybe_compact();

  SimClock* clock_;
  std::vector<Event> heap_;  // binary heap via std::push_heap / pop_heap
  std::unordered_set<EventId> live_;       // scheduled, not fired/cancelled
  std::unordered_set<EventId> cancelled_;  // tombstones pending in heap_
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace aorta::util
