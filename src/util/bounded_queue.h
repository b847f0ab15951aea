// Bounded FIFO with explicit overflow policy and drop accounting.
//
// The service layer (src/server) bounds every buffer a tenant can fill —
// submission queues and result mailboxes — so one hot client cannot grow
// memory without limit. Overflow either rejects the new item or sheds the
// oldest one; both outcomes are counted so benches and tests can report
// shed rates instead of guessing. A zero-capacity queue keeps nothing:
// every push is rejected (kRejectNew) or shed (kShedOldest; the new item
// is then the oldest), and counted as such.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

namespace aorta::util {

enum class OverflowPolicy {
  kRejectNew,   // push fails, queue unchanged
  kShedOldest,  // oldest item dropped to make room
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity,
                        OverflowPolicy policy = OverflowPolicy::kRejectNew)
      : capacity_(capacity), policy_(policy) {}

  // Returns true iff the item was buffered: false when it was rejected
  // (kRejectNew on a full queue) or shed at once (zero capacity).
  bool push(T item) {
    if (items_.size() >= capacity_) {
      if (policy_ == OverflowPolicy::kRejectNew) {
        ++rejected_;
        return false;
      }
      ++shed_;
      if (items_.empty()) return false;  // zero capacity: shed the new one
      items_.pop_front();
    }
    items_.push_back(std::move(item));
    return true;
  }

  std::optional<T> pop() {
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  const T* front() const { return items_.empty() ? nullptr : &items_.front(); }
  // The newest item; the queue must not be empty.
  const T& back() const { return items_.back(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }

  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t dropped() const { return rejected_ + shed_; }

  // Iteration over queued items, oldest first (inspection only).
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::size_t capacity_;
  OverflowPolicy policy_;
  std::deque<T> items_;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace aorta::util
