// Czar: the frontend of the sharded query plane.
//
// The czar owns the declarative interface when Config::num_shards > 0: it
// takes each parsed statement, plans it into per-shard fragments
// (shard/fragment.h), dispatches them as RPCs to the worker engines, and
// merges the per-shard result streams back into one. Continuous rows are
// unioned by shard::Merger in deterministic (virtual timestamp, shard id,
// arrival) order behind the workers' heartbeat watermarks. A one-shot
// SELECT gets an id from the AQ id counter, and each target answers with
// one row group under it on the same stream. A target settles exactly
// once: when its group arrives (a later one is stale), when its fragment
// RPC is refused or fails, when its shard is marked down, or at
// core::kSelectDeadline (checked on the supervision timer). Then the
// partials are combined — concatenated in shard order, or
// partial-aggregate-merged (count/sum as sums, min/max as extrema) when
// the select list aggregates.
//
// Shard pruning: each AQ and one-shot SELECT goes only to its target set
// (target_shards, shard/fragment.h), computed once from the AST. A
// statement that pins device ids with `alias.id = 'lit'` targets the
// shards owning them; every other statement targets all shards. A pruned
// SELECT's barrier, shards_total and partial/aggregate-error rules count
// its targets only.
//
// Per-shard supervision: every worker message refreshes its shard's
// liveness; a shard silent for kMissThreshold heartbeat intervals is
// marked down (its rows stop holding back the merge frontier). So is a
// shard whose fragment RPC gave up, unless its generation moved since the
// dispatch: a worker answers every fragment RPC at once, so a call that
// ran out of attempts means the control path is broken. The first
// message after a mark-down marks the shard up again and triggers
// recovery: the czar bumps the shard's generation — a fresh-slate
// handshake that makes the worker drop every fragment and reset its
// outbound seq counter — and re-registers every live AQ that targets it.
//
// Reliable backplane (DESIGN.md §14): fragment RPCs go through
// net::ReliableCall (retries behind per-peer retry budgets), every request
// carries an idempotency key, and the worker result streams are consumed
// exactly once: duplicate seqs are dropped, gaps are NACKed for
// retransmission (again every kNackInterval while they stay open), and
// consumed-heartbeat instants piggyback a cumulative ack that lets the
// worker trim its replay buffer. Config::reliable_backplane = false only
// cuts the RPC attempts to one (and the workers' replay retention to zero).
//
// Continuous aggregates (DESIGN.md §15): each worker's AggregateCache
// emits per-shard window partials (avg() rewritten to sum + an appended
// count by the worker, exactly like the one-shot path), and the czar
// folds the partials positionally per (window instant, group key) as the
// merge frontier releases them — all shards' rows for a window instant
// release in the same watermark advance, so a released window is a
// complete one. Finalized rows (avg restored, helper columns dropped)
// reach on_row in deterministic (instant, query, group key) order.
//
// Planning limits (surfaced as invalid_argument, documented in DESIGN.md):
// multi-table joins and DDL other than CREATE AQ / DROP AQ are not
// supported through the sharded plane.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aorta.h"
#include "net/reliable.h"
#include "shard/fragment.h"
#include "shard/merger.h"

namespace aorta::shard {

struct CzarStats {
  std::uint64_t aqs_registered = 0;     // AQs accepted (fan-outs, not acks)
  std::uint64_t aqs_dropped = 0;
  std::uint64_t selects = 0;            // one-shot SELECT fan-outs
  std::uint64_t fragment_errors = 0;    // worker-side registration failures
  std::uint64_t rows_received = 0;      // continuous rows decoded
  std::uint64_t outcomes_received = 0;  // action outcomes relayed
  std::uint64_t heartbeats_received = 0;
  std::uint64_t stale_gen_msgs = 0;     // dropped: superseded generation
  std::uint64_t ooo_buffered = 0;       // messages held for seq reordering
  std::uint64_t stale_query_rows = 0;   // rows no AQ or waiting target takes
  std::uint64_t rejected_groups = 0;    // unannounced or misshapen groups
  std::uint64_t workers_marked_down = 0;
  std::uint64_t reregistrations = 0;    // recovery fan-outs (gen bumps)
  // Reliable backplane (DESIGN.md §14).
  std::uint64_t dup_msgs_dropped = 0;   // duplicate seqs (chaos or replay)
  std::uint64_t acks_sent = 0;          // cumulative acks to workers
  std::uint64_t nacks_sent = 0;         // retransmit requests for seq gaps
  std::uint64_t partial_selects = 0;    // SELECTs answered by < all targets
  // Fragment RPCs not sent because the shard is outside the statement's
  // target set (shard pruning).
  std::uint64_t fragments_pruned = 0;
};

class Czar : public net::Endpoint {
 public:
  struct Options {
    int num_shards = 1;
  };

  // Action outcomes relayed from the workers (the service layer routes
  // them to the owning session's mailbox through the same sink it installs
  // on an unsharded executor).
  using OutcomeSink = query::OutcomeSink;

  Czar(core::Aorta* host, Options options);
  ~Czar() override;

  Czar(const Czar&) = delete;
  Czar& operator=(const Czar&) = delete;

  // Mirrors core::Aorta::exec_async for the statement kinds the sharded
  // plane supports; `done` fires exactly once. The text form parses and
  // forwards; the statement form takes `sql` as already parsed into
  // `stmt` (the text is what the fragments carry).
  void exec_async(
      const std::string& sql, core::ExecOptions options,
      std::function<void(aorta::util::Result<core::ExecResult>)> done);
  void exec_async(
      query::Statement stmt, const std::string& sql, core::ExecOptions options,
      std::function<void(aorta::util::Result<core::ExecResult>)> done);

  // Direct drop (service-layer session teardown). Fans fragment_drop out
  // fire-and-forget; not_found if the czar doesn't know the query.
  aorta::util::Status drop_aq(const std::string& name);

  void set_outcome_sink(OutcomeSink sink) { outcome_sink_ = std::move(sink); }

  int num_shards() const { return options_.num_shards; }
  bool worker_live(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].live;
  }
  std::vector<std::string> aq_names() const;
  const CzarStats& stats() const { return stats_; }
  const Merger& merger() const { return *merger_; }
  const net::ReliableCallStats& reliable_stats() const {
    return reliable_call_.stats();
  }

  // net::Endpoint
  void on_message(const net::Message& msg) override;

 private:
  // Merge plan for an aggregate select list, built once at dispatch and
  // shared by one-shot SELECTs (folded once every target settled) and
  // continuous AQs (folded per window instant and group): the shape of
  // the rows the workers ship (select-list ops with avg folded as sum,
  // one appended count per avg, then one hidden column per GROUP BY
  // column the select list leaves out — worker.cc's rewrite) plus what
  // finalize() needs (avg positions + original labels, the original
  // select-list width to resize back to). Group-key columns, hidden ones
  // included, carry no op.
  struct AggPlan {
    std::vector<std::optional<query::AggOp>> ops;  // per shipped column
    std::vector<std::size_t> avg_cols;    // original avg positions
    std::vector<std::string> avg_labels;  // original avg(...) labels
    std::vector<std::size_t> group_cols;  // op-less positions (group keys)
    std::size_t select_size = 0;          // original select-list width

    // Fold one shipped partial row into `acc`, column by column.
    void fold(query::Row& acc, const query::Row& row) const;
    // A NULL count becomes 0, avg = sum/count, the original labels are
    // restored and the helper and hidden group columns dropped.
    void finalize(query::Row& row) const;
  };

  struct AqState {
    std::string name;  // full (session-prefixed) name
    std::string sql;
    core::ExecOptions options;  // owner + on_row
    std::optional<AggPlan> agg;  // set when the select list aggregates
    // The shipped rows' labels, from the first announcement (every shard
    // announces the same ones), and which shards announced them in their
    // current generation.
    std::vector<std::string> labels;
    std::vector<bool> announced;
    // The shards the AQ is registered on (target_shards); registration,
    // its error unwind, drop and recovery touch only these.
    std::vector<int> targets;
  };

  // A one-shot SELECT whose targets have not all settled.
  struct SelectState {
    int answered = 0;  // targets whose group arrived
    int total = 0;     // the target set's size
    std::vector<bool> waiting;  // by shard: dispatched, not yet settled
    std::vector<std::vector<query::TimestampedRow>> partials;  // by shard
    std::optional<AggPlan> plan;  // the merge plan, built at dispatch
    std::string error;            // the first worker refusal
    aorta::util::TimePoint deadline;
    std::function<void(aorta::util::Result<core::ExecResult>)> done;
  };

  struct ShardState {
    std::uint64_t gen = 0;       // current generation
    std::uint64_t next_seq = 0;  // next seq to consume
    std::map<std::uint64_t, net::Message> ooo;  // held for reordering
    aorta::util::TimePoint last_msg;
    bool live = true;
    // NACK rate limiting: the last gap start requested and when.
    std::uint64_t last_nack_from = ~std::uint64_t{0};
    aorta::util::TimePoint last_nack_at;
  };

  // Nullopt when the select list has no aggregate call.
  static std::optional<AggPlan> make_agg_plan(const query::SelectStmt& stmt);

  FragmentSpec make_spec(const std::string& name, const std::string& sql,
                         bool once, int shard, std::uint64_t id = 0) const;
  // Every fragment RPC: stamps the idempotency key and applies the
  // give-up rule (see file comment) before `callback` runs.
  void call_worker(int shard, const char* kind,
                   std::map<std::string, std::string> fields,
                   net::RpcCallback callback, std::size_t payload_bytes);
  void send_register(int shard, const FragmentSpec& spec,
                     net::RpcCallback callback);
  void send_drop(int shard, const std::string& name, std::uint64_t id);
  // The live shards of a target set, in order; the shards outside it
  // count as pruned.
  std::vector<int> dispatch_to(const std::vector<int>& targets);

  void exec_select(const query::SelectStmt& stmt, const std::string& sql,
                   const std::vector<int>& targets,
                   std::function<void(aorta::util::Result<core::ExecResult>)>
                       done);
  // Settle one SELECT target, answered with `rows` or (null) not; a no-op
  // for a target already settled. The last target completes the SELECT.
  void settle_select(std::uint64_t id, int shard,
                     std::vector<query::TimestampedRow>* rows);
  // Merge per-shard SELECT partials (indexed by shard; a missing shard's
  // slot stays empty) into the final row set: concatenation without a
  // plan, one folded and finalized row with one.
  static std::vector<query::Row> merge_select(
      const std::optional<AggPlan>& plan,
      std::vector<std::vector<query::TimestampedRow>>& partials);

  // In-seq-order consumption of one worker message.
  void consume(int shard, const net::Message& msg);
  // One flush: AQ row groups into the Merger, SELECT groups to their
  // statements, outcomes to the sink.
  void consume_flush(int shard, const net::Message& msg);
  // A group whose id is no live AQ's: a SELECT target's answer, or stale.
  void consume_select_group(int shard, const RowGroup& g,
                            std::span<query::TimestampedRow> rows);
  // A row the merge frontier released: to the AQ's on_row (by move; the
  // hook's name argument is the AQ's own and dies if the hook drops it),
  // or into its aggregate window bucket.
  void on_row_released(std::uint64_t id, query::TimestampedRow& row);
  // Deliver every buffered aggregate window (all complete by the release
  // invariant above); called after each frontier advance.
  void flush_agg_windows();

  // Cumulative acks and gap NACKs (DESIGN.md §14).
  void send_ack(int shard);
  void maybe_nack(int shard);

  // Supervision: periodic silence check, and the recovery handshake.
  void mark_down(int shard);
  void check_liveness();
  void recover_shard(int shard);

  core::Aorta* host_;
  Options options_;
  aorta::util::EventLoop* loop_;
  net::Network* network_;
  obs::Tracer* tracer_;
  net::RpcClient rpc_;
  // Every fragment RPC goes through here (retries, budgets).
  net::ReliableCall reliable_call_;
  std::uint64_t dispatch_seq_ = 0;  // czar-global idempotency-key counter

  // Live AQs by fragment id (never reused; the key of every row-path
  // lookup), and the name directory (statements, recovery order).
  std::unordered_map<std::uint64_t, AqState> aqs_;
  std::map<std::string, std::uint64_t> ids_;
  // Unsettled one-shot SELECTs by id: dispatch order, so deadline order.
  std::map<std::uint64_t, SelectState> selects_;
  std::uint64_t next_id_ = 1;  // AQ and SELECT ids
  // Released-but-unfinalized aggregate partials: fragment id -> (window
  // instant in micros, encoded group key) -> positionally folded row.
  std::map<std::uint64_t,
           std::map<std::pair<std::int64_t, std::string>,
                    query::TimestampedRow>>
      agg_pending_;
  std::vector<ShardState> shards_;
  std::unique_ptr<Merger> merger_;
  OutcomeSink outcome_sink_;
  CzarStats stats_;
  obs::MetricsRegistry::Scoped metrics_;
  obs::MetricsRegistry::Scoped reliable_metrics_;  // "net.reliable.*"
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace aorta::shard
