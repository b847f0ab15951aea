#include "shard/merger.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace aorta::shard {

using aorta::util::TimePoint;

Merger::Merger(int num_shards, Emit emit)
    : emit_(std::move(emit)),
      shards_(static_cast<std::size_t>(num_shards)) {}

void Merger::add(int shard, std::uint64_t id, query::TimestampedRow row) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  const aorta::util::TimePoint at = row.at;
  buffer_.push_back(Entry{at, shard, s.next_arrival++, id, std::move(row)});
  ++stats_.rows_in;
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
  std::erase_if(buffer_, [id](const Entry& e) { return e.id == id; });
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
  TimePoint f = frontier();
  // Stable partition keeps not-yet-eligible rows in arrival order; the
  // eligible prefix is then sorted by the deterministic merge key.
  auto eligible = std::stable_partition(
      buffer_.begin(), buffer_.end(), [f](const Entry& e) { return e.at < f; });
  if (eligible == buffer_.begin()) return;
  std::sort(buffer_.begin(), eligible, [](const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.arrival < b.arrival;
  });
  // Detach the released rows before emitting them: an emit hook may drop
  // an AQ, and forget_query() then erases from buffer_. A dropped AQ's
  // rows still in `released` are skipped by the emitter's id lookup.
  std::vector<Entry> released(std::make_move_iterator(buffer_.begin()),
                              std::make_move_iterator(eligible));
  buffer_.erase(buffer_.begin(), eligible);
  ++stats_.release_passes;
  for (Entry& e : released) {
    ++stats_.rows_out;
    emit_(e.id, e.row);
  }
}

}  // namespace aorta::shard
