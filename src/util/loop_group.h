// LoopGroup: N discrete-event loops stepped in lockstep virtual-time
// windows — the parallel deterministic runtime (DESIGN.md §12).
//
// One global EventLoop serializes the whole simulated world, so added
// cores buy nothing. The LoopGroup instead owns K loops (loop 0 is the
// control loop for the czar/server/host; the sharded plane adds one loop
// per worker), each with its own SimClock, and advances them with a
// conservative epoch-barrier protocol:
//
//   1. BARRIER (serial): every cross-loop message posted during the last
//      window is flushed into its destination loop in deterministic
//      (deliver-time, source loop, per-source sequence) order; then the
//      next window [T, W] is computed as W = min(until, next_event + Q)
//      where next_event is the earliest pending event across all loops
//      and Q is the lookahead quantum (kQuantum).
//   2. RUN (parallel): each loop independently executes its events up to
//      W on its assigned thread. Loops share no mutable state during this
//      phase — cross-loop sends only append to the sender's own outbox.
//
// Determinism: each loop's execution within a window is a fixed function
// of its own event queue and its own seeded RNGs; the only inter-loop
// coupling is the barrier flush, whose order is a sorted merge independent
// of wall-clock interleaving. The window schedule itself depends only on
// virtual event times. Hence the delivered-event stream, metrics and trace
// of a run are byte-identical whether the group runs on 1 thread or 8 —
// the property runtime_determinism_test locks in.
//
// Correctness bound (lookahead): a cross-loop message sent at time t
// carries a modelled link delay d and is delivered at t + d, but it can
// only be *flushed* at the next barrier, i.e. at or after W. Keeping
// Q <= min cross-loop link latency guarantees t + d >= W, so the flush
// never has to move a delivery; if a configuration violates the bound the
// delivery is clamped to the barrier time (counted in posts_clamped) —
// still deterministic, since the barrier grid is virtual-time-derived.
// The minimum cross-loop latency is a czar<->worker message's: it
// crosses two zero-jitter 200 µs backplane links (the sender's and the
// receiver's), so Q = kQuantum = 400 µs meets the bound exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/event_loop.h"
#include "util/time.h"

namespace aorta::util {

// Per-loop runtime counters, all deterministic (window counts and message
// counts depend only on virtual time). Exposed in stats_json() as
// "runtime.<i>.*".
struct LoopRuntimeStats {
  std::uint64_t barrier_waits = 0;    // windows this loop rendezvoused for
  std::uint64_t posts_out = 0;        // cross-loop messages sent
  std::uint64_t posts_in = 0;         // cross-loop messages delivered
  std::uint64_t posts_clamped = 0;    // deliveries moved up to the barrier
  std::uint64_t max_outbox_depth = 0; // peak cross-loop queue depth
};

class LoopGroup {
 public:
  // The barrier lookahead Q described above.
  static constexpr Duration kQuantum = Duration::micros(400);

  LoopGroup();
  ~LoopGroup();

  LoopGroup(const LoopGroup&) = delete;
  LoopGroup& operator=(const LoopGroup&) = delete;

  // Loop 0 (the control loop) exists from construction. add_loop() returns
  // the lowest retired slot, or else appends one. Either way the loop is
  // fresh: its clock starts at the control loop's current time, with an
  // empty queue and outbox and zeroed stats; posts still queued for a
  // reused slot's old loop are dropped. Call it only while the group is
  // quiescent (not inside run_until).
  int add_loop();
  int size() const { return static_cast<int>(loops_.size()); }
  // Retire loop `i` when the slice living on it is destroyed: its pending
  // events, and every cross-loop post to it from now on, are dropped
  // unrun, its stall sink is withdrawn, and windows no longer step it.
  // Its index stays valid (an idle loop) until add_loop() reuses it. Call
  // only while the group is quiescent.
  void retire(int i);

  EventLoop* loop(int i) { return loops_[static_cast<std::size_t>(i)]->loop.get(); }
  SimClock* clock(int i) { return loops_[static_cast<std::size_t>(i)]->clock.get(); }
  EventLoop* control() { return loop(0); }

  // How many OS threads drive the run phase. 1 (default) executes the
  // loops serially on the caller's thread — same windows, same flush
  // order, byte-identical results. Values above the loop count are capped.
  void set_threads(int n) { threads_ = n < 1 ? 1 : n; }
  int threads() const { return threads_; }

  // Post `fn` to run on loop `dst` at virtual time `when`. Must be called
  // from code executing on loop `src` (or from the caller's thread while
  // the group is quiescent). Lock-free: appends to the source's outbox,
  // which only the barrier's serial phase drains.
  void post(int src, int dst, TimePoint when, std::function<void()> fn);

  // Advance every loop to `until` through barrier-stepped windows. On
  // return all clocks read `until` and no event at or before `until`
  // remains pending. Not re-entrant (asserted via running()).
  void run_until(TimePoint until);
  void run_for(Duration span) { run_until(control()->now() + span); }
  bool running() const { return running_; }

  // Pending events across all loops plus undelivered cross-loop posts.
  std::size_t pending() const;

  const LoopRuntimeStats& stats(int i) const {
    return loops_[static_cast<std::size_t>(i)]->stats;
  }
  std::uint64_t windows() const { return windows_run_; }

  // Wall-clock barrier stall reporting: after each rendezvous the sink of
  // every loop the resuming thread owns is invoked (from that thread) with
  // the milliseconds spent waiting for stragglers. Wall-clock, hence
  // nondeterministic — feed it only into volatile metrics.
  using StallSink = std::function<void(double stall_ms)>;
  void set_stall_sink(int i, StallSink sink) {
    loops_[static_cast<std::size_t>(i)]->stall_sink = std::move(sink);
  }

  // Wall-clock busy time, in milliseconds, also for volatile metrics only:
  // the time loop `i` spent inside its run_until, and the critical path,
  // the sum over windows of the busiest thread's time in the window (at
  // one thread, the sum of every loop's busy time). Readable from any
  // thread, also while the group runs.
  double busy_ms(int i) const {
    return static_cast<double>(
               loops_[static_cast<std::size_t>(i)]->busy_ns.load(
                   std::memory_order_relaxed)) /
           1e6;
  }
  double critical_path_ms() const {
    return static_cast<double>(
               critical_path_ns_.load(std::memory_order_relaxed)) /
           1e6;
  }

 private:
  struct CrossPost {
    TimePoint when;
    std::uint64_t seq;  // per-source, monotone
    int src;
    int dst;
    std::function<void()> fn;
  };
  struct PerLoop {
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<EventLoop> loop;
    std::vector<CrossPost> outbox;  // written only by this loop's thread
    std::uint64_t next_post_seq = 1;
    LoopRuntimeStats stats;
    StallSink stall_sink;
    // Written by the thread that runs the loop, read by metrics gauges.
    std::atomic<std::uint64_t> busy_ns{0};
    bool retired = false;
  };

  // Serial phase: drain every outbox into the destination loops in sorted
  // (when, src, seq) order, clamping deliveries to `floor`.
  void flush_posts(TimePoint floor);
  // Earliest pending event across all loops; false when all queues empty.
  bool next_event_time(TimePoint* out);
  // Compute the next window end, flushing posts first. Returns false when
  // nothing remains at or before `until`.
  bool plan_window(TimePoint until, TimePoint* window);

  void run_serial(TimePoint until);
  void run_threaded(TimePoint until, int nthreads);
  // Run one loop's events up to `until`, adding the wall time to its busy
  // time; returns that time in nanoseconds.
  static std::uint64_t run_timed(PerLoop& pl, TimePoint until);

  int threads_ = 1;
  std::vector<std::unique_ptr<PerLoop>> loops_;
  std::uint64_t windows_run_ = 0;
  std::atomic<std::uint64_t> critical_path_ns_{0};
  bool running_ = false;
};

}  // namespace aorta::util
