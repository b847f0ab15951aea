#include "util/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace aorta::util {

EventId EventLoop::schedule(Duration delay, std::function<void()> fn) {
  return schedule_at(now() + delay, std::move(fn));
}

EventId EventLoop::schedule_at(TimePoint when, std::function<void()> fn) {
  assert(when >= now() && "cannot schedule an event in the past");
  EventId id = next_id_++;
  heap_.push_back(Event{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  live_.insert(id);
  return id;
}

bool EventLoop::cancel(EventId id) {
  if (live_.erase(id) == 0) return false;  // unknown, fired, or cancelled
  cancelled_.insert(id);
  maybe_compact();
  return true;
}

void EventLoop::maybe_compact() {
  if (cancelled_.size() * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Event& e) {
    return cancelled_.count(e.id) != 0;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_.clear();
  ++compactions_;
}

void EventLoop::prune_top() {
  while (!heap_.empty() && cancelled_.erase(heap_.front().id) > 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventLoop::next_event_time(TimePoint* out) {
  prune_top();
  if (heap_.empty()) return false;
  *out = heap_.front().when;
  return true;
}

void EventLoop::run_one() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  if (cancelled_.erase(ev.id) > 0) return;
  live_.erase(ev.id);
  clock_->advance_to(ev.when);
  ++executed_;
  ev.fn();  // may schedule further events
}

void EventLoop::run_until(TimePoint until) {
  for (;;) {
    prune_top();
    if (heap_.empty() || heap_.front().when > until) break;
    run_one();
  }
  if (now() < until) clock_->advance_to(until);
}

void EventLoop::run_all() {
  for (;;) {
    prune_top();
    if (heap_.empty()) break;
    run_one();
  }
}

void EventLoop::clear() {
  // Destroy the closures only after the queue is empty again: a captured
  // object's destructor may itself schedule or cancel.
  std::vector<Event> dropped = std::exchange(heap_, {});
  live_.clear();
  cancelled_.clear();
}

}  // namespace aorta::util
