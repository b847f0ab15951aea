#include "shard/merger.h"

#include <algorithm>
#include <limits>

namespace aorta::shard {

using aorta::util::TimePoint;

Merger::Merger(int num_shards, Emit emit)
    : emit_(std::move(emit)),
      shards_(static_cast<std::size_t>(num_shards)) {}

void Merger::add(int shard, std::uint64_t id, query::TimestampedRow row) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  ++stats_.rows_in;
  ++buffered_;
  if (s.head == s.run.size() || !(row.at < s.run.back().row.at)) {
    s.run.push_back(Entry{id, std::move(row)});
    return;
  }
  // Older than the tail: after every buffered row of its instant or
  // earlier, which keeps arrival order within an instant.
  const TimePoint at = row.at;
  auto pos = std::upper_bound(
      s.run.begin() + static_cast<std::ptrdiff_t>(s.head), s.run.end(), at,
      [](TimePoint t, const Entry& e) { return t < e.row.at; });
  s.run.insert(pos, Entry{id, std::move(row)});
}

void Merger::watermark(int shard, TimePoint w) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (w > s.watermark) s.watermark = w;
  release();
}

void Merger::set_live(int shard, bool live) {
  shards_[static_cast<std::size_t>(shard)].live = live;
  if (!live) release();  // the frontier may have advanced past its hold-back
}

void Merger::forget_query(std::uint64_t id) {
  for (Shard& s : shards_) {
    auto kept = std::remove_if(
        s.run.begin() + static_cast<std::ptrdiff_t>(s.head), s.run.end(),
        [id](const Entry& e) { return e.id == id; });
    buffered_ -= static_cast<std::size_t>(s.run.end() - kept);
    s.run.erase(kept, s.run.end());
  }
}

TimePoint Merger::frontier() const {
  bool any = false;
  TimePoint f;
  for (const Shard& s : shards_) {
    if (!s.live) continue;
    if (!any || s.watermark < f) f = s.watermark;
    any = true;
  }
  // No live shard: nothing can ever arrive before any bound — release all.
  return any ? f : TimePoint::from_micros(
                       std::numeric_limits<std::int64_t>::max());
}

void Merger::release() {
  const TimePoint f = frontier();
  bool emitted = false;
  for (;;) {
    // The run whose head comes first on (timestamp, shard); ties go to
    // the lower shard, which the scan visits first.
    Shard* next = nullptr;
    for (Shard& s : shards_) {
      if (s.head == s.run.size()) continue;
      const TimePoint at = s.run[s.head].row.at;
      if (at < f && (next == nullptr || at < next->run[next->head].row.at)) {
        next = &s;
      }
    }
    if (next == nullptr) break;
    // Its rows at that instant precede every other run's rows.
    const TimePoint at = next->run[next->head].row.at;
    while (next->head < next->run.size() &&
           next->run[next->head].row.at == at) {
      // Out of the run before the emitter runs: it may forget queries.
      Entry& e = next->run[next->head++];
      const std::uint64_t id = e.id;
      query::TimestampedRow row = std::move(e.row);
      --buffered_;
      ++stats_.rows_out;
      emitted = true;
      emit_(id, row);
    }
  }
  // Drop the released prefixes: a drained run keeps its capacity, a
  // partly drained one is compacted once it is mostly released.
  for (Shard& s : shards_) {
    if (s.head == s.run.size()) {
      s.run.clear();
      s.head = 0;
    } else if (s.head > s.run.size() / 2) {
      s.run.erase(s.run.begin(),
                  s.run.begin() + static_cast<std::ptrdiff_t>(s.head));
      s.head = 0;
    }
  }
  if (emitted) ++stats_.release_passes;
}

}  // namespace aorta::shard
