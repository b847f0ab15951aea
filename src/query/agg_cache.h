// Shared incremental aggregation for continuous queries (DESIGN.md §15).
//
// The ScanBroker dedupes *reads*; this cache dedupes *computation*. Every
// continuous aggregate AQ (SELECT avg(s.temp) ... GROUP BY s.hops WINDOW
// 30s EVERY 5s) canonicalizes to a query hash over its event type, sample
// period and phase, window/slide shape, normalized predicate set and
// normalized aggregate list — everything EXCEPT the GROUP BY columns. AQs
// with the same hash share one cache entry: one broker subscription, one
// predicate+argument evaluation per delivered tuple, one set of
// incremental pane partials. Distinct GROUP BY column lists attach as
// *groupings* of the entry (the subsumption rule: a grouping may attach
// only when its columns are a subset of the attributes the entry's
// subscription already acquires), each accumulating its own group map from
// the same once-evaluated tuples — so 1000 dashboard tenants watching the
// same building aggregate cost one evaluation per tuple, not 1000.
//
// Window semantics are defined in *samples* (one sample = one AQ epoch
// batch): a pane is `slide` consecutive samples, a window is
// `window/slide` consecutive panes, and emission happens at every pane
// close, which coincides with the engine's epoch barrier for the batch
// that completed the pane. Each pane folds its tuples into one AggFold per
// aggregate argument (query/aggregate.h — the same fold the one-shot
// SELECT uses); SUM/COUNT/AVG re-fold the ≤ window/slide retained pane
// partials at emission; MIN/MAX keep per-group monotonic deques of
// per-pane extrema so a window extremum is a deque front, not a rescan.
// Predicates and arguments run as the EvalPrograms compile() lowered for
// the entry's first subscriber (co-hashed AQs lower to the same programs
// up to alias naming). Subscribers that join mid-stream only see windows
// made entirely of panes after their join (min_pane warm-up), which keeps
// a shared entry's output byte-identical to the private entry the
// `Config::aggregate_cache=false` ablation would have built.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/scan_broker.h"
#include "query/aggregate.h"
#include "query/compile.h"
#include "util/event_loop.h"

namespace aorta::query {

struct TimestampedRow;  // executor.h

// Aggregate-cache sharing counters (`broker.agg_cache.*`) and evaluation
// counters (`eval.agg.*`). A miss creates a new entry; a hit attaches to
// an existing entry + existing grouping; a subsumption attaches a new
// grouping to an existing entry. tuples_evaluated counts once per
// (entry, delivered tuple) — the quantity N co-hashed AQs would each have
// paid without the cache.
struct AggStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t tuples_evaluated = 0;
  std::uint64_t emissions = 0;     // rows emitted to subscribers
  std::uint64_t panes_closed = 0;  // pane boundaries processed
};

class AggregateCache {
 public:
  struct Options {
    // false = the Config::aggregate_cache=false ablation: the attach key
    // includes the AQ generation, so every AQ gets a private entry and
    // runs the identical accumulation machinery without sharing.
    bool shared = true;
  };

  // Receives every emitted window row for the named AQ (the executor
  // routes it into hooks.on_row or the bounded results ring).
  using EmitFn =
      std::function<void(const std::string& name, TimestampedRow row)>;

  AggregateCache(comm::ScanBroker* broker, aorta::util::EventLoop* loop,
                 Options options);
  ~AggregateCache();

  // Attach a continuous aggregate AQ. `epoch_ticks` is its sample period
  // in engine ticks, `sample_period_s` the same period in seconds (window
  // validation). Fails on invalid aggregate shape (multi-table, embedded
  // actions, non-grouped plain projections, windows that don't divide).
  aorta::util::Status attach(const std::string& name, std::uint64_t generation,
                             const CompiledQuery& compiled,
                             std::uint64_t epoch_ticks, double sample_period_s,
                             EmitFn emit);

  // Detach by registration generation. Empty groupings and entries are
  // torn down eagerly (the churn guarantee: after the last subscriber
  // leaves, no entry, subscription or group state survives).
  void detach(std::uint64_t generation);

  const AggStats& stats() const { return stats_; }
  std::size_t entry_count() const { return entries_.size(); }
  std::size_t subscriber_count() const { return subs_by_gen_.size(); }

 private:
  // One pane's fold for one aggregate argument of one group, plus whether
  // any of its tuples was degraded.
  struct Pane {
    AggFold fold;
    bool degraded = false;
  };

  // Sliding state for one aggregate argument of one group: the open pane,
  // the ring of closed panes still inside some window, and the monotonic
  // min/max deques over those panes.
  struct ArgWindow {
    Pane cur;
    std::deque<std::pair<std::uint64_t, Pane>> panes;
    std::deque<std::pair<std::uint64_t, double>> mins;  // increasing
    std::deque<std::pair<std::uint64_t, double>> maxs;  // decreasing
  };

  struct GroupState {
    std::vector<device::Value> values;  // the group's key column values
    std::vector<ArgWindow> args;        // parallel to Entry::args
  };

  // One distinct GROUP BY column list over an entry. Grouping the same
  // once-evaluated tuples by a coarser (or different) key costs one map
  // update per tuple, not a re-evaluation.
  struct Grouping {
    std::vector<std::string> cols;  // event-table column names, clause order
    std::map<std::string, GroupState> groups;  // encoded key -> state
    std::size_t subscribers = 0;
  };

  // One select-list item of a subscriber, rendered per emitted row.
  struct SubItem {
    bool is_group = false;
    std::size_t index = 0;  // grouping col index / entry arg index
    AggOp op = AggOp::kCount;
    std::string label;  // the subscriber's own projection text
  };

  struct Entry;

  struct Subscriber {
    std::string name;
    std::uint64_t generation = 0;
    std::uint64_t min_pane = 0;  // first pane fully after the join
    std::vector<SubItem> items;
    EmitFn emit;
    Entry* entry = nullptr;
    Grouping* grouping = nullptr;
  };

  // One distinct aggregate argument, evaluated once per passing tuple.
  struct ArgCol {
    std::string key;     // canonical text ("e.temp", "*")
    bool star = false;   // COUNT(*): counts tuples, nothing to evaluate
    EvalProgram program;
  };

  struct Entry {
    std::uint64_t id = 0;
    std::string hash_key;  // canonical hash input (+generation if !shared)
    device::DeviceTypeId type;
    std::uint64_t period = 1;  // sample period in engine ticks
    std::uint64_t phase = 0;
    std::uint64_t window = 1;  // in samples
    std::uint64_t slide = 1;   // in samples
    std::uint64_t window_panes = 1;  // window / slide
    std::set<std::string> needed;    // attrs the subscription acquires
    std::vector<EvalProgram> preds;  // the event predicates
    std::vector<ArgCol> args;
    std::vector<std::unique_ptr<Grouping>> groupings;
    std::vector<std::uint64_t> subs;  // subscriber generations, ascending
    comm::ScanBroker::SubscriptionId subscription = 0;
  };

  // The normalized shape distilled from one AQ's compiled query; feeds
  // both the hash and the entry/subscriber construction.
  struct Spec {
    std::vector<std::string> pred_keys;     // sorted canonical texts
    std::vector<std::string> arg_keys;      // distinct args' canonical texts
    std::vector<const CompiledAggregate*> arg_sources;  // parallel
    std::vector<std::string> group_cols;    // clause order
    std::vector<SubItem> items;             // select-list rendering plan
    std::uint64_t window = 1;               // samples
    std::uint64_t slide = 1;                // samples
    std::set<std::string> needed;           // full pushdown set
  };

  aorta::util::Status build_spec(const CompiledQuery& compiled,
                                 double sample_period_s, Spec* spec) const;

  void on_batch(std::uint64_t entry_id, const std::vector<comm::Tuple>& tuples,
                std::uint64_t issue_tick);
  // Stages (subscriber generation, row) emissions into `out`.
  void close_pane(Entry& entry, std::uint64_t pane,
                  std::vector<std::pair<std::uint64_t, TimestampedRow>>* out);
  device::Value finalize(const GroupState& group, const SubItem& item,
                         bool* degraded) const;

  comm::ScanBroker* broker_;
  aorta::util::EventLoop* loop_;
  Options options_;

  std::map<std::uint64_t, std::unique_ptr<Entry>> entries_;  // by entry id
  // Entries per hash, attach order. Usually one; a second appears when a
  // co-hashed AQ groups by a column outside the first entry's subscribed
  // attribute set (the subsumption rule refuses the attach).
  std::map<std::string, std::vector<std::uint64_t>> by_hash_;
  std::map<std::uint64_t, std::unique_ptr<Subscriber>> subs_by_gen_;
  std::uint64_t next_entry_id_ = 1;
  AggStats stats_;
};

}  // namespace aorta::query
