#include "util/loop_group.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <chrono>
#include <thread>

namespace aorta::util {

LoopGroup::LoopGroup() {
  (void)add_loop();  // loop 0: the control loop
}

LoopGroup::~LoopGroup() = default;

int LoopGroup::add_loop() {
  assert(!running_ && "add_loop while the group is running");
  auto pl = std::make_unique<PerLoop>();
  pl->clock = std::make_unique<SimClock>();
  if (!loops_.empty()) pl->clock->advance_to(loops_[0]->clock->now());
  pl->loop = std::make_unique<EventLoop>(pl->clock.get());
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    if (!loops_[i]->retired) continue;
    const int slot = static_cast<int>(i);
    for (auto& other : loops_) {
      std::erase_if(other->outbox,
                    [slot](const CrossPost& p) { return p.dst == slot; });
    }
    loops_[i] = std::move(pl);
    return slot;
  }
  loops_.push_back(std::move(pl));
  return static_cast<int>(loops_.size()) - 1;
}

void LoopGroup::retire(int i) {
  assert(!running_ && "retire while the group is running");
  PerLoop& pl = *loops_[static_cast<std::size_t>(i)];
  pl.retired = true;
  pl.stall_sink = nullptr;
  pl.loop->clear();
}

void LoopGroup::post(int src, int dst, TimePoint when,
                     std::function<void()> fn) {
  assert(dst >= 0 && dst < size());
  PerLoop& s = *loops_[static_cast<std::size_t>(src)];
  s.outbox.push_back(CrossPost{when, s.next_post_seq++, src, dst,
                               std::move(fn)});
  ++s.stats.posts_out;
  s.stats.max_outbox_depth =
      std::max(s.stats.max_outbox_depth,
               static_cast<std::uint64_t>(s.outbox.size()));
}

void LoopGroup::flush_posts(TimePoint floor) {
  std::vector<CrossPost> all;
  for (auto& pl : loops_) {
    if (pl->outbox.empty()) continue;
    all.insert(all.end(), std::make_move_iterator(pl->outbox.begin()),
               std::make_move_iterator(pl->outbox.end()));
    pl->outbox.clear();
  }
  if (all.empty()) return;
  // The deterministic merge: deliver-time, then source loop, then the
  // source's own send order. Wall-clock interleaving cannot perturb it.
  std::sort(all.begin(), all.end(),
            [](const CrossPost& a, const CrossPost& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (CrossPost& p : all) {
    PerLoop& d = *loops_[static_cast<std::size_t>(p.dst)];
    if (d.retired) continue;  // nothing lives there any more
    TimePoint when = p.when;
    if (when < floor) {
      when = floor;  // lookahead violated: land on the barrier instead
      ++d.stats.posts_clamped;
    }
    ++d.stats.posts_in;
    (void)d.loop->schedule_at(when, std::move(p.fn));
  }
}

bool LoopGroup::next_event_time(TimePoint* out) {
  bool any = false;
  TimePoint best;
  for (auto& pl : loops_) {
    TimePoint t;
    if (!pl->loop->next_event_time(&t)) continue;
    if (!any || t < best) best = t;
    any = true;
  }
  if (any) *out = best;
  return any;
}

bool LoopGroup::plan_window(TimePoint until, TimePoint* window) {
  // The barrier time: all loops have met it (clocks only drift apart
  // within a window, and every window ends at the same W).
  TimePoint floor = loops_[0]->clock->now();
  for (auto& pl : loops_) floor = std::max(floor, pl->clock->now());
  flush_posts(floor);
  TimePoint next;
  if (!next_event_time(&next) || next > until) return false;
  // Adaptive window: jump straight to the next event, then extend by the
  // lookahead quantum so a window amortizes more than one event.
  *window = std::min(until, next + kQuantum);
  ++windows_run_;
  return true;
}

void LoopGroup::run_serial(TimePoint until) {
  TimePoint window;
  while (plan_window(until, &window)) {
    for (auto& pl : loops_) {
      if (pl->retired) continue;
      pl->loop->run_until(window);
      ++pl->stats.barrier_waits;
    }
  }
  for (auto& pl : loops_) {
    if (!pl->retired) pl->loop->run_until(until);
  }
}

void LoopGroup::run_threaded(TimePoint until, int nthreads) {
  struct Plan {
    TimePoint window;
    bool done = false;
  };
  Plan plan;
  const int n = size();
  // The completion function is the serial barrier phase: exactly one
  // thread runs it while every other thread is parked inside the barrier,
  // so flush_posts / plan_window need no further synchronization.
  std::barrier sync(nthreads, [this, until, &plan]() noexcept {
    plan.done = !plan_window(until, &plan.window);
  });
  auto drive = [&](int tid) {
    for (;;) {
      const auto wait_start = std::chrono::steady_clock::now();
      sync.arrive_and_wait();
      const double stall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wait_start)
              .count();
      if (plan.done) break;
      for (int i = tid; i < n; i += nthreads) {
        PerLoop& pl = *loops_[static_cast<std::size_t>(i)];
        if (pl.retired) continue;
        if (pl.stall_sink) pl.stall_sink(stall_ms);
        pl.loop->run_until(plan.window);
        ++pl.stats.barrier_waits;
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int t = 1; t < nthreads; ++t) workers.emplace_back(drive, t);
  drive(0);
  for (auto& th : workers) th.join();
  for (auto& pl : loops_) {
    if (!pl->retired) pl->loop->run_until(until);
  }
}

void LoopGroup::run_until(TimePoint until) {
  assert(!running_ && "LoopGroup::run_until is not re-entrant");
  running_ = true;
  if (size() == 1) {
    // Degenerate group: behaves exactly like the single global loop.
    PerLoop& pl = *loops_[0];
    do {
      flush_posts(pl.clock->now());
      pl.loop->run_until(until);
    } while (!pl.outbox.empty());
  } else if (std::min(threads_, size()) <= 1) {
    run_serial(until);
  } else {
    run_threaded(until, std::min(threads_, size()));
  }
  running_ = false;
}

std::size_t LoopGroup::pending() const {
  std::size_t total = 0;
  for (const auto& pl : loops_) {
    total += pl->loop->pending() + pl->outbox.size();
  }
  return total;
}

}  // namespace aorta::util
