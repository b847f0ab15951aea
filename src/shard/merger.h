// Merger: deterministic union of per-shard continuous result streams.
//
// Each worker ships its fragments' rows to the czar as sequenced bursts
// and advertises a watermark with every heartbeat: "every row I will ever
// send with at < w has already been sent" (exact because the czar consumes
// each shard's messages in seq order — see shard/fragment.h). The merger
// buffers rows and releases them once the *frontier* — the minimum
// watermark across live shards — has passed them, sorted by
//
//     (virtual timestamp, shard id, per-shard arrival order)
//
// so two same-seed runs emit byte-identical streams regardless of how
// message deliveries interleave across shards. Down shards are excluded
// from the frontier (a dead worker must not stall the other shards'
// results); their buffered rows stay eligible and drain under the
// surviving shards' frontier.
//
// The buffer is one run per shard in (timestamp, arrival) order. A worker
// stamps each row with its loop's `now` and the czar consumes a shard's
// flushes in seq order, so rows arrive in that order and append; a row
// older than its run's tail is inserted in order. Release is then a k-way
// merge of the runs' heads on (timestamp, shard) up to the frontier.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "query/executor.h"
#include "util/time.h"

namespace aorta::shard {

struct MergerStats {
  std::uint64_t rows_in = 0;        // rows accepted from workers
  // Rows handed to the emitter. Rows forget_query() drops (also those of
  // a fragment the emitter drops mid-pass) are never counted here.
  std::uint64_t rows_out = 0;
  std::uint64_t release_passes = 0; // frontier advances that emitted rows
};

class Merger {
 public:
  // `emit` receives each released row exactly once, in merge order, with
  // the fragment id it was added under; the row is the emitter's to move.
  // It may call forget_query(), which drops the fragment's rows not yet
  // emitted.
  using Emit =
      std::function<void(std::uint64_t id, query::TimestampedRow& row)>;

  Merger(int num_shards, Emit emit);

  // Buffer one row of fragment `id` from `shard` (arrival order within a
  // shard is the czar's seq order, already linearized).
  void add(int shard, std::uint64_t id, query::TimestampedRow row);

  // Advance a shard's watermark; releases every buffered row with
  // at < min(watermark over live shards).
  void watermark(int shard, aorta::util::TimePoint w);

  // Mark a shard live/down. Down shards drop out of the frontier, which
  // can itself release rows.
  void set_live(int shard, bool live);
  bool live(int shard) const { return shards_[static_cast<std::size_t>(shard)].live; }

  // Drop a fragment's buffered rows (AQ dropped before its tail flushed).
  void forget_query(std::uint64_t id);

  aorta::util::TimePoint frontier() const;
  std::size_t buffered() const { return buffered_; }
  const MergerStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    query::TimestampedRow row;
  };
  struct Shard {
    aorta::util::TimePoint watermark;
    bool live = true;
    // Buffered rows in (timestamp, arrival) order; [0, head) are released.
    std::vector<Entry> run;
    std::size_t head = 0;
  };

  void release();

  Emit emit_;
  std::vector<Shard> shards_;
  std::size_t buffered_ = 0;
  MergerStats stats_;
};

}  // namespace aorta::shard
