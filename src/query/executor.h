// The continuous query executor: Aorta's event-driven evaluation loop.
//
// Action-embedded queries are "event-driven continuous queries" (Section
// 2.2). The executor samples each registered query's event table every
// epoch through the communication layer's shared acquisition plane (the
// ScanBroker): AQs with the same event table, epoch period, phase and
// needed attributes form one delivery group on one broker subscription,
// so co-located queries share one batched sensory sweep per epoch. Events
// are detected as rising edges of the sensory event predicates (an object
// starts moving);
// candidate devices for each embedded action are enumerated by evaluating
// the join predicates (coverage(...)); instantiated action requests are
// deposited into the per-action shared operators. At the end of each
// epoch every operator flushes: probe -> schedule -> execute under locks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "comm/scan_broker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/action_operator.h"
#include "query/agg_cache.h"
#include "query/compile.h"
#include "query/predicate_index.h"

namespace aorta::query {

struct QueryStats {
  std::uint64_t epochs = 0;            // evaluations performed
  std::uint64_t events = 0;            // rising edges detected
  std::uint64_t requests_issued = 0;   // action requests deposited
};

// Engine-wide compiled-evaluation counters (query/eval_program.h): every
// per-row expression runs as a slot-resolved EvalProgram.
struct EvalStats {
  std::uint64_t programs_compiled = 0;  // programs cached across queries
  std::uint64_t compiled_evals = 0;     // program executions (hot path)
};

// Predicate-index matching counters (query/predicate_index.h): how many
// tuple probes ran, how many candidate AQs they produced, how many of
// those needed a residual program run vs. an exact-cover skip, and how
// many registered AQs the index pruned away without evaluating.
struct IndexStats {
  std::uint64_t probes = 0;          // tuple probes against group indexes
  std::uint64_t candidates = 0;      // candidate AQs emitted by probes
  std::uint64_t residual_evals = 0;  // candidates confirmed by their program
  std::uint64_t exact_skips = 0;     // candidates accepted without a run
  std::uint64_t pruned = 0;          // indexed AQs skipped per probe
};

// One projected row of a one-shot SELECT.
using Row = std::vector<std::pair<std::string, device::Value>>;

// A row produced by a continuous query at event time. `degraded` marks
// rows evaluated over last-known-good values from a quarantined device
// (the broker's degradation marker, carried to server deliveries).
struct TimestampedRow {
  aorta::util::TimePoint at;
  Row row;
  bool degraded = false;
};

// A continuous query's row as it leaves the executor: the instant, the
// AQ's projection labels (rendered once, by compile()), its projected
// values and the degradation marker. The values live in a buffer the
// executor reuses for its next row, so a receiver that keeps them moves
// them out; the labels die with the AQ.
struct RowView {
  aorta::util::TimePoint at;
  std::span<const std::string> labels;
  std::span<device::Value> values;
  bool degraded = false;
};

// The labelled row of a view: labels copied, values moved out of it.
TimestampedRow to_row(const RowView& view);

// A one-shot SELECT's result as it leaves the executor: the plan's labels
// once and every row's values, row-major in one buffer the executor
// reuses for its next SELECT, so a receiver that keeps values moves them
// out. The labels live as long as the plan.
struct SelectView {
  std::span<const std::string> labels;
  std::span<device::Value> values;  // rows x labels.size()
  std::size_t rows = 0;

  std::span<device::Value> row(std::size_t i) const {
    return values.subspan(i * labels.size(), labels.size());
  }
};

// The labelled rows of a view: labels copied, values moved out of it.
std::vector<Row> to_rows(const SelectView& view);

class ContinuousQueryExecutor {
 public:
  struct Options {
    aorta::util::Duration epoch = aorta::util::Duration::seconds(1.0);
    std::string scheduler_name = "SRFAE";
    bool use_probing = true;  // Section 6.2 ablations
    bool use_locks = true;
    int max_retries = 1;  // failover rounds per failed action request
    // Health supervision (nullable = off), forwarded to action operators.
    device::HealthView* health = nullptr;
    // Worker shard index this executor runs on (-1 = unsharded engine),
    // forwarded to action operators so requests carry their owning shard.
    int shard = -1;
    // Predicate-index matching (the sub-linear fan-out path): each
    // delivered tuple probes its delivery group's compiled-predicate index
    // and only candidate AQs run their programs. false = ablation: members
    // join the same groups with no index constraint (all on the residual
    // list), the probe is skipped and every program runs on every tuple
    // (byte-identical output).
    bool predicate_index = true;
    // Shared-aggregate cache (query/agg_cache.h): continuous aggregate AQs
    // with the same canonical query hash share one broker subscription and
    // one incremental window accumulation. false = ablation: every
    // aggregate AQ gets a private cache entry running the identical
    // machinery (byte-identical output, N× the evaluation cost).
    bool aggregate_cache = true;
  };

  // Multi-tenant hooks a query can be registered with (src/server): an
  // owner tag identifying the registering session/tenant, and a callback
  // that takes every projected row at event time as a RowView. A hooked
  // query's rows belong to its hook, and only hook-less queries keep the
  // bounded ring served by recent_results. `on_row` may drop AQs, its own
  // included; its `name` argument, the view's labels (and then the hook
  // itself) die with the AQ, so it reads them before dropping its own AQ
  // and touches none of them after.
  struct AqHooks {
    std::string owner;
    std::function<void(const std::string& name, const RowView& row)> on_row;
  };

  ContinuousQueryExecutor(device::DeviceRegistry* registry,
                          comm::CommLayer* comm, comm::ScanBroker* broker,
                          sync::Prober* prober, sync::LockManager* locks,
                          aorta::util::EventLoop* loop, Catalog* catalog,
                          aorta::util::Rng rng, Options options);
  ~ContinuousQueryExecutor();

  // Register a compiled continuous query under `name`. Starts being
  // evaluated from the next epoch tick. Fails with compile()'s error when
  // an expression does not lower (query/compile.h). The registered query
  // keeps only what evaluation reads (Aq's plan).
  aorta::util::Status register_aq(const std::string& name, double epoch_s,
                                  const SelectStmt& stmt, AqHooks hooks = {});

  aorta::util::Status drop_aq(const std::string& name);
  std::vector<std::string> aq_names() const;

  // Owner tag the query was registered with ("" if unknown / untagged).
  std::string aq_owner(const std::string& name) const;

  // Engine ticks between evaluations of a registered query (0 if unknown).
  // An epoch_s shorter than the engine epoch is clamped to 1 with a logged
  // warning at registration.
  std::uint64_t aq_epoch_ticks(const std::string& name) const;

  // Begin epoch ticking (idempotent).
  void start();

  // One-shot SELECT, plan-then-run. plan_select compiles the statement
  // (counting its programs in eval_stats) and rejects shapes a one-shot
  // SELECT cannot answer. run_plan acquires tuples, evaluates predicates,
  // projects the non-action select items (SELECT * arrives expanded) or
  // folds the aggregates into one row with AggFold (query/aggregate.h),
  // and hands `done` the rows as a SelectView. It only reads the plan, so
  // one plan serves any number of runs, and the run holds it until `done`
  // fires.
  using SelectDone = std::function<void(const SelectView&)>;
  aorta::util::Result<std::shared_ptr<const CompiledQuery>> plan_select(
      const SelectStmt& stmt);
  void run_plan(std::shared_ptr<const CompiledQuery> plan, SelectDone done);

  // ---- results / observability --------------------------------------------
  // Rows a continuous query's projections produced at its last events
  // (bounded ring, newest last). Empty for queries with no projections
  // and for queries registered with an on_row hook (the hook owns them).
  std::vector<TimestampedRow> recent_results(const std::string& name) const;

  // Receives every action outcome of every query (the server layer routes
  // them to the owning session's mailbox; a worker relays them to the
  // czar). Nullable = off.
  void set_outcome_sink(OutcomeSink sink);

  // Span tracing (nullable = off): registration instants, per-batch eval
  // instants, `event` instants per fired AQ, `request`/`batch`/`outcome`
  // action instants, per-operator action-flush spans and one `epoch` span
  // bracketing each tick's processing window.
  void set_tracer(obs::Tracer* tracer);

  // ---- statistics --------------------------------------------------------
  const QueryStats* query_stats(const std::string& name) const;
  const EvalStats& eval_stats() const { return eval_stats_; }
  // Predicate-index entries across all delivery groups (== registered
  // non-aggregate AQs).
  std::size_t index_entries() const;
  // Length of the member table that resolves staged pairs and hook
  // callers to live AQs: bounded by the AQs live at once, so it returns
  // to its size before a register/drop cycle once the cycle is over.
  std::size_t member_table_size() const { return live_.size(); }

  // Enroll `eval.index.*`-style counters/gauges under `prefix`. Per-type
  // entry gauges ("<prefix>types.<type>.entries") enroll lazily as device
  // types first gain an indexed AQ.
  void set_index_metrics(obs::MetricsRegistry* metrics, std::string prefix);
  // Shared-aggregate cache counters: evaluation cost under `eval_prefix`
  // ("eval.agg."), sharing outcomes under `cache_prefix`
  // ("broker.agg_cache.", including the live_windows gauge).
  void set_agg_metrics(obs::MetricsRegistry* metrics, std::string eval_prefix,
                       std::string cache_prefix);
  const AggStats& agg_stats() const { return agg_cache_->stats(); }
  std::size_t agg_entries() const { return agg_cache_->entry_count(); }
  std::size_t agg_subscribers() const {
    return agg_cache_->subscriber_count();
  }
  // Action outcomes per query, aggregated across all shared operators.
  QueryActionStats action_stats(const std::string& name) const;
  std::vector<const ActionOperator*> operators() const;
  sched::Scheduler* scheduler() { return scheduler_.get(); }

 private:
  struct DeliveryGroup;

  // One embedded action of a registered query, as fire_event and
  // enumerate_candidates read it.
  struct ActionCall {
    const ActionDef* action = nullptr;
    // Compiled arguments; the binding argument (finalized per selected
    // device) holds an empty program.
    std::vector<EvalProgram> arg_programs;
    // The candidate table's schema, or null when the action runs on the
    // event device itself (e.g. beep(s.id)).
    const comm::Schema* candidate_schema = nullptr;
    std::uint32_t candidate_binding = 0;  // the candidate's frame slot
  };

  struct Aq {
    std::string name;
    // Distinguishes this registration from an earlier one under the same
    // name: batch-delivery callbacks check it so a drop + re-register
    // mid-epoch never feeds stale tuples to the new query (the broker's
    // never-recycled subscription ids give the same guarantee one layer
    // down).
    std::uint64_t generation = 0;
    // This AQ's entry in the member table (live_), and, for a delivery
    // group member, its handle in the group index.
    std::uint32_t slot = 0;
    // ---- evaluation plan ----------------------------------------------
    // What process_event_tuple, fire_event and enumerate_candidates read
    // of the compiled query, and nothing else (DESIGN.md §8). Empty for a
    // continuous aggregate, whose AggregateCache entry holds its programs.
    std::uint8_t bindings = 0;       // frame size: one slot per FROM alias
    std::uint8_t event_binding = 0;  // the event table's frame slot
    bool edge_triggered = false;
    // `programs` holds the event predicates, then the join predicates
    // from join_begin, then the projections from projection_begin. An
    // exact index constraint stands in for the event predicates, which
    // are then not kept.
    std::uint32_t join_begin = 0;
    std::uint32_t projection_begin = 0;
    std::vector<EvalProgram> programs;
    std::vector<std::string> labels;  // the projections' labels
    std::vector<ActionCall> actions;
    // The constraint filed in the group index (null = residual list). An
    // `exact` one covers the whole predicate set: candidacy alone proves a
    // match, no residual program run needed.
    std::unique_ptr<const IndexableConjunct> conjunct;
    AqHooks hooks;
    std::uint64_t epoch_ticks = 1;  // evaluate every N engine epochs
    // ---- delivery-group state -----------------------------------------
    // Null for continuous aggregates, whose evaluation lives in the shared
    // AggregateCache instead.
    DeliveryGroup* group = nullptr;
    // Broker tick at registration: batches issued at or before it predate
    // this member and are skipped (mirrors never-recycled sub ids).
    std::uint64_t join_tick = 0;
    // Group deliveries to discount when deriving this member's epochs
    // stat (deliveries before the join, plus batches then in flight).
    std::uint64_t epochs_base = 0;
    // Edge detection under pruning, indexed by the group's device number
    // (DeliveryGroup::device_numbers): the group row sequence of the
    // device's last row that satisfied the predicates, 0 = none yet
    // (sequences start at 1). A fire requires the immediately preceding
    // delivered row to NOT have satisfied them, i.e. the stored seq is 0
    // or != current seq - 1. Rows the index prunes are guaranteed
    // unsatisfied and need no bookkeeping; rows the broker skips
    // (unreachable devices) advance no sequence, so a device's edge state
    // survives its absence. Empty until a row first satisfies the
    // predicates; then sized to the group's device count at once, and
    // again only when the group has numbered more devices since.
    std::vector<std::uint64_t> last_true_seq;
    // epochs is derived lazily from the group (query_stats()).
    mutable QueryStats stats;
    // Projection outputs at event time (bounded ring; hook-less AQs only,
    // allocated by the first row kept).
    std::unique_ptr<std::deque<TimestampedRow>> results;

    std::span<const EvalProgram> event_programs() const {
      return {programs.data(), join_begin};
    }
    std::span<const EvalProgram> join_programs() const {
      return {programs.data() + join_begin, projection_begin - join_begin};
    }
    std::span<const EvalProgram> projection_programs() const {
      return {programs.data() + projection_begin,
              programs.size() - projection_begin};
    }
  };

  // AQs sharing (event type, period, phase, needed attrs) are
  // interchangeable from the broker's point of view: one subscription
  // feeds them all, and a per-group PredicateIndex picks which members'
  // programs each tuple runs. The key is exactly the subscription each AQ
  // would need on its own, so due-ness, tuple projection and
  // unreachable-device semantics are per-AQ semantics.
  using GroupKey = std::tuple<device::DeviceTypeId, std::uint64_t,
                              std::uint64_t, std::set<std::string>>;

  struct DeliveryGroup {
    GroupKey key;
    device::DeviceTypeId type;
    comm::ScanBroker::SubscriptionId subscription = 0;
    // One entry per member; handles are member-table slots.
    PredicateIndex index;
    std::uint64_t deliveries = 0;  // batches fanned out so far
    // Dense device numbers, in first-delivery order: each staged tuple's
    // device is numbered once, and members index their edge state by it.
    std::unordered_map<device::DeviceId, std::uint32_t> device_numbers;
    // Per device number, the rows delivered to this group so far (edge
    // detection).
    std::vector<std::uint64_t> row_seq;
  };

  // One group's share of a broker batch, staged until the batch's
  // delivery epilogue: members across all groups of the batch are
  // processed in one global generation-ordered pass, so side effects
  // follow registration order whatever the grouping. Everything the pass
  // needs per tuple is copied here, because a hook may destroy the group
  // mid-pass.
  struct StagedBatch {
    DeliveryGroup* group;  // read only while probing, before any hook
    std::vector<comm::Tuple> tuples;
    std::vector<std::uint32_t> devices;  // group device number per tuple
    std::vector<std::uint64_t> seqs;     // row_seq assigned to each tuple
    std::uint32_t group_devices = 0;     // devices the group has numbered
    std::uint64_t issue_tick = 0;
  };

  // A member-table entry: the live AQ in a slot and its generation. A
  // slot is reused after a drop, so a reference taken earlier (a staged
  // pair, a hook's caller) holds the generation too and finds its AQ
  // gone when the two differ.
  struct LiveSlot {
    std::uint64_t generation = 0;  // 0 = free
    Aq* aq = nullptr;
  };

  static constexpr std::size_t kResultCap = 256;

  void on_tick();
  // Stage a group's batch at fan-out, process all staged batches at the
  // broker's delivery epilogue, evaluate one (member, tuple) pair.
  // `device_number` is the tuple's device in the member's group, which
  // numbered `group_devices` devices at staging; `candidate` distinguishes
  // index candidates (constraint and checks satisfied; maybe exact) from
  // residual-list members.
  void stage_group_batch(DeliveryGroup& group,
                         const std::vector<comm::Tuple>& tuples,
                         std::uint64_t issue_tick);
  void process_staged();
  void process_event_tuple(Aq& aq, const comm::Tuple& tuple,
                           std::uint32_t device_number, std::uint64_t seq,
                           std::uint32_t group_devices, bool candidate);
  // Event tail once a fire is decided: trace, projections (row hook),
  // action fan-out.
  void fire_event(Aq* aq, const comm::Tuple& tuple, const BindingFrame& frame);
  // A hook-less AQ's row into its bounded results ring.
  static void keep_result(Aq& aq, TimestampedRow row);
  // Aggregate-cache emission for the AQ registered as `generation` in
  // member-table slot `slot`.
  void deliver_agg_row(std::uint32_t slot, std::uint64_t generation,
                       const RowView& row);
  // The live AQ registered as `generation` in `slot`, or null once
  // dropped. User hooks can drop AQs: re-resolve here before touching one
  // after a hook.
  Aq* live_aq(std::uint32_t slot, std::uint64_t generation) const {
    if (slot >= live_.size()) return nullptr;  // trimmed since
    const LiveSlot& live = live_[slot];
    return live.generation == generation ? live.aq : nullptr;
  }
  // Member-table bookkeeping: take a slot for `aq`, give it back.
  void claim_slot(Aq* aq);
  void release_slot(std::uint32_t slot);

  // Candidate device enumeration for one action call of one event tuple.
  // `frame` carries the event tuple; the candidate slot is rebound per
  // enumerated device.
  std::vector<device::DeviceId> enumerate_candidates(
      const Aq& aq, const ActionCall& call, const BindingFrame& frame);
  // Keep what evaluation reads of a delivery-group member's compiled
  // query as its plan; the rest dies with `compiled`.
  void adopt_plan(Aq& aq, CompiledQuery compiled) const;
  // run_plan's evaluation once every table is acquired: `tables[i]` holds
  // the tuples of FROM entry i.
  void finish_select(const CompiledQuery& q,
                     std::span<const std::vector<comm::Tuple>* const> tables,
                     const SelectDone& done);

  // Run one compiled expression over a frame, counting into eval_stats_.
  aorta::util::Result<device::Value> eval_expr(const EvalProgram& program,
                                               const BindingFrame& frame) {
    ++eval_stats_.compiled_evals;
    return program.run(frame);
  }
  bool eval_pred(const EvalProgram& program, const BindingFrame& frame) {
    ++eval_stats_.compiled_evals;
    return program.run_predicate(frame);
  }

  ActionOperator* operator_for(const ActionDef* action);

  device::DeviceRegistry* registry_;
  comm::CommLayer* comm_;
  comm::ScanBroker* broker_;
  sync::Prober* prober_;
  sync::LockManager* locks_;
  aorta::util::EventLoop* loop_;
  Catalog* catalog_;
  aorta::util::Rng rng_;
  Options options_;

  std::unique_ptr<sched::Scheduler> scheduler_;
  std::map<std::string, std::unique_ptr<Aq>> queries_;
  // Delivery groups (one broker subscription + one PredicateIndex each),
  // the member table of every live AQ (re-resolution after user hooks,
  // which may drop AQs mid-pass; free slots are reused and trailing ones
  // trimmed, so it ends at the highest live slot), and the batches staged
  // between fan-out and the delivery epilogue.
  std::map<GroupKey, std::unique_ptr<DeliveryGroup>> groups_;
  std::vector<LiveSlot> live_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<StagedBatch> staged_;
  IndexStats index_stats_;
  obs::MetricsRegistry::Scoped index_metrics_;
  std::set<device::DeviceTypeId> index_metric_types_;
  // Shared windowed aggregation for aggregate AQs (query/agg_cache.h).
  std::unique_ptr<AggregateCache> agg_cache_;
  obs::MetricsRegistry::Scoped agg_eval_metrics_;
  obs::MetricsRegistry::Scoped agg_cache_metrics_;
  std::map<std::string, std::unique_ptr<ActionOperator>> operators_;
  bool started_ = false;
  std::uint64_t next_generation_ = 1;
  std::uint64_t tick_no_ = 0;
  obs::Tracer* tracer_ = nullptr;
  OutcomeSink outcome_sink_;
  EvalStats eval_stats_;
  // fire_event's projected values, reused from row to row (taken out
  // while a hook holds them, so a re-entrant fire cannot overwrite them),
  // and finish_select's rows and aggregate folds, reused from SELECT to
  // SELECT (the rows taken out likewise while `done` holds them).
  std::vector<device::Value> row_values_;
  std::vector<device::Value> select_values_;
  std::vector<AggFold> select_folds_;
};

}  // namespace aorta::query
