#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/logging.h"

namespace aorta::query {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;
using device::Value;

ContinuousQueryExecutor::ContinuousQueryExecutor(
    device::DeviceRegistry* registry, comm::CommLayer* comm,
    comm::ScanBroker* broker, sync::Prober* prober, sync::LockManager* locks,
    aorta::util::EventLoop* loop, Catalog* catalog, aorta::util::Rng rng,
    Options options)
    : registry_(registry),
      comm_(comm),
      broker_(broker),
      prober_(prober),
      locks_(locks),
      loop_(loop),
      catalog_(catalog),
      rng_(std::move(rng)),
      options_(std::move(options)) {
  scheduler_ = sched::make_scheduler(options_.scheduler_name);
  if (scheduler_ == nullptr) {
    AORTA_LOG(kError, "query") << "unknown scheduler '"
                               << options_.scheduler_name
                               << "', falling back to SRFAE";
    scheduler_ = sched::make_scheduler("SRFAE");
  }
  // Staged group batches are processed at each broker batch's delivery
  // epilogue: the same virtual time as the fan-out, before the tick
  // barrier can flush action operators.
  broker_->set_delivery_epilogue([this]() { process_staged(); });
  agg_cache_ = std::make_unique<AggregateCache>(
      broker_, loop_, AggregateCache::Options{options_.aggregate_cache});
}

ContinuousQueryExecutor::~ContinuousQueryExecutor() {
  broker_->set_delivery_epilogue({});
}

Status ContinuousQueryExecutor::register_aq(const std::string& name,
                                            double epoch_s,
                                            const SelectStmt& stmt,
                                            AqHooks hooks) {
  if (queries_.count(name) > 0) {
    return aorta::util::already_exists_error("query already registered: " + name);
  }
  auto compiled = compile(stmt, *catalog_, *registry_);
  if (!compiled.is_ok()) return compiled.status();
  CompiledQuery& cq = compiled.value();

  // Continuous aggregates run on the shared-aggregate cache (attached
  // below, after the epoch is resolved). GROUP BY / WINDOW only make sense
  // over aggregate projections.
  bool has_agg = !cq.aggregates.empty();
  if (!has_agg && (!cq.group_by.empty() || cq.window_s > 0.0 ||
                   cq.every_s > 0.0)) {
    return aorta::util::invalid_argument_error(
        "GROUP BY / WINDOW require aggregate projections "
        "(count/sum/avg/min/max)");
  }

  auto aq = std::make_unique<Aq>();
  aq->name = name;
  aq->generation = next_generation_++;
  aq->hooks = std::move(hooks);
  eval_stats_.programs_compiled += cq.program_count();

  if (epoch_s > 0.0) {
    double engine_epoch_s = options_.epoch.to_seconds();
    if (epoch_s < engine_epoch_s) {
      AORTA_LOG(kWarn, "query")
          << "AQ '" << name << "' requested an epoch of " << epoch_s
          << "s, shorter than the engine epoch of " << engine_epoch_s
          << "s; clamping to one engine epoch";
    }
    double ratio = epoch_s / engine_epoch_s;
    aq->epoch_ticks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(ratio)));
  }

  if (has_agg) {
    // Continuous aggregate: evaluation and window emission live in the
    // shared AggregateCache (one broker subscription + one incremental
    // accumulation per canonical query hash), not in a delivery group. The
    // emit callback re-resolves the query by slot and generation: a drop +
    // re-register between pane close and delivery must not feed the new
    // registration.
    claim_slot(aq.get());
    Status attached = agg_cache_->attach(
        name, aq->generation, cq, aq->epoch_ticks,
        static_cast<double>(aq->epoch_ticks) * options_.epoch.to_seconds(),
        [this, slot = aq->slot, generation = aq->generation](
            const std::string&, TimestampedRow row) {
          deliver_agg_row(slot, generation, std::move(row));
        });
    if (!attached.is_ok()) {
      release_slot(aq->slot);
      return attached;
    }
    AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kRegister, "register:" + name,
                        loop_->now(),
                        "aggregate every " + std::to_string(aq->epoch_ticks) +
                            " tick(s)");
    queries_.emplace(name, std::move(aq));
    return Status::ok();
  }

  // Make sure the shared operators for its actions exist.
  for (const auto& call : cq.actions) {
    if (operator_for(call.action) == nullptr) {
      return aorta::util::internal_error("could not create action operator for " +
                                         call.action->name);
    }
  }

  // Attach the query to the shared acquisition plane with its needed
  // event-table attributes (projection pushdown).
  std::set<std::string> needed;
  auto it = cq.needed_attrs.find(cq.event_alias);
  if (it != cq.needed_attrs.end()) needed = std::move(it->second);

  // AQs with the same (type, period, phase, needed) share one
  // subscription + one compiled-predicate index. The phase mirrors what a
  // fresh subscription would get (tick_count % period), so a member joins
  // an existing group only when that group's batches fire exactly when its
  // own subscription would have.
  device::DeviceTypeId type = cq.event_type();
  std::uint64_t phase = broker_->tick_count() % aq->epoch_ticks;
  GroupKey key{type, aq->epoch_ticks, phase, needed};
  auto git = groups_.find(key);
  if (git == groups_.end()) {
    auto group = std::make_unique<DeliveryGroup>();
    group->key = key;
    group->type = type;
    group->subscription = broker_->subscribe(
        type, std::move(needed), aq->epoch_ticks,
        [this, g = group.get()](const std::vector<comm::Tuple>& tuples,
                                std::uint64_t issue_tick) {
          stage_group_batch(*g, tuples, issue_tick);
        });
    if (index_metrics_.live() && index_metric_types_.insert(type).second) {
      index_metrics_.enroll_gauge(
          "types." + obs::MetricsRegistry::sanitize_component(type) +
              ".entries",
          [this, type]() {
            std::int64_t n = 0;
            for (const auto& [k, g] : groups_) {
              if (g->type == type) n += static_cast<std::int64_t>(
                  g->index.size());
            }
            return n;
          });
    }
    git = groups_.emplace(std::move(key), std::move(group)).first;
  }
  DeliveryGroup* group = git->second.get();
  aq->group = group;
  aq->join_tick = broker_->tick_count();
  // Discount deliveries that predate this member — including batches
  // already in flight, which the join_tick guard will skip.
  aq->epochs_base =
      group->deliveries + broker_->pending_batches(group->subscription);
  adopt_plan(*aq, std::move(cq));
  claim_slot(aq.get());
  group->index.add(aq->slot, aq->conjunct.get());

  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kRegister, "register:" + name,
                      loop_->now(),
                      "every " + std::to_string(aq->epoch_ticks) + " tick(s)");
  queries_.emplace(name, std::move(aq));
  return Status::ok();
}

Status ContinuousQueryExecutor::drop_aq(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return aorta::util::not_found_error("no such query: " + name);
  }
  Aq& aq = *it->second;
  if (aq.group == nullptr) {
    // Aggregate path: the cache tears down the subscriber, and the entry +
    // subscription with it when this was the last co-hashed AQ.
    agg_cache_->detach(aq.generation);
  } else {
    // Remove this member's index entry; tear the group down only when its
    // last member leaves.
    DeliveryGroup* group = aq.group;
    group->index.remove(aq.slot, aq.conjunct.get());
    if (group->index.size() == 0) {
      broker_->unsubscribe(group->subscription);
      // A batch staged for this group but not yet processed (drop from a
      // hook mid-epilogue) must not be walked after the group dies.
      staged_.erase(std::remove_if(staged_.begin(), staged_.end(),
                                   [group](const StagedBatch& s) {
                                     return s.group == group;
                                   }),
                    staged_.end());
      groups_.erase(group->key);
    }
  }
  release_slot(aq.slot);
  queries_.erase(it);
  return Status::ok();
}

void ContinuousQueryExecutor::adopt_plan(Aq& aq, CompiledQuery compiled) const {
  aq.bindings = static_cast<std::uint8_t>(compiled.binding_aliases.size());
  aq.event_binding = static_cast<std::uint8_t>(compiled.event_binding);
  aq.edge_triggered = compiled.edge_triggered;
  // With the index off every member joins with no constraint, i.e. on the
  // residual list: it runs its programs on every tuple.
  if (options_.predicate_index && compiled.index_conjunct) {
    aq.conjunct = std::make_unique<const IndexableConjunct>(
        std::move(*compiled.index_conjunct));
  }
  std::vector<EvalProgram>& programs = aq.programs;
  const bool exact = aq.conjunct != nullptr && aq.conjunct->exact;
  programs.reserve((exact ? 0 : compiled.event_programs.size()) +
                   compiled.join_programs.size() +
                   compiled.projection_programs.size());
  auto keep = [&](std::vector<EvalProgram>& from) {
    std::move(from.begin(), from.end(), std::back_inserter(programs));
  };
  if (!exact) keep(compiled.event_programs);
  aq.join_begin = static_cast<std::uint32_t>(programs.size());
  keep(compiled.join_programs);
  aq.projection_begin = static_cast<std::uint32_t>(programs.size());
  keep(compiled.projection_programs);
  if (!compiled.projection_programs.empty()) {
    aq.labels = std::move(compiled.labels);
    aq.labels.shrink_to_fit();
  }
  aq.actions.reserve(compiled.actions.size());
  for (CompiledActionCall& call : compiled.actions) {
    ActionCall& kept = aq.actions.emplace_back();
    kept.action = call.action;
    kept.arg_programs = std::move(call.arg_programs);
    if (call.candidate_alias != compiled.event_alias) {
      kept.candidate_schema = compiled.schemas.at(call.candidate_alias);
    }
    kept.candidate_binding =
        static_cast<std::uint32_t>(call.candidate_binding);
  }
}

void ContinuousQueryExecutor::claim_slot(Aq* aq) {
  // Entries past the end were trimmed away; skip them.
  while (!free_slots_.empty() && free_slots_.back() >= live_.size()) {
    free_slots_.pop_back();
  }
  if (free_slots_.empty()) {
    aq->slot = static_cast<std::uint32_t>(live_.size());
    live_.emplace_back();
  } else {
    aq->slot = free_slots_.back();
    free_slots_.pop_back();
  }
  live_[aq->slot] = LiveSlot{aq->generation, aq};
}

void ContinuousQueryExecutor::release_slot(std::uint32_t slot) {
  live_[slot] = LiveSlot{};
  free_slots_.push_back(slot);
  // Trim free slots off the end, so the table shrinks back once the AQs
  // that grew it are gone (claim_slot skips the stale free-list entries).
  while (!live_.empty() && live_.back().aq == nullptr) live_.pop_back();
  if (live_.empty()) free_slots_.clear();
}

std::vector<std::string> ContinuousQueryExecutor::aq_names() const {
  std::vector<std::string> out;
  for (const auto& [name, aq] : queries_) out.push_back(name);
  return out;
}

std::string ContinuousQueryExecutor::aq_owner(const std::string& name) const {
  auto it = queries_.find(name);
  return it == queries_.end() ? "" : it->second->hooks.owner;
}

std::uint64_t ContinuousQueryExecutor::aq_epoch_ticks(
    const std::string& name) const {
  auto it = queries_.find(name);
  return it == queries_.end() ? 0 : it->second->epoch_ticks;
}

ActionOperator* ContinuousQueryExecutor::operator_for(const ActionDef* action) {
  auto it = operators_.find(action->name);
  if (it != operators_.end()) return it->second.get();
  ActionOperator::Options op_options;
  op_options.use_probing = options_.use_probing;
  op_options.use_locks = options_.use_locks;
  op_options.max_retries = options_.max_retries;
  op_options.health = options_.health;
  op_options.shard = options_.shard;
  auto op = std::make_unique<ActionOperator>(action, prober_, locks_, registry_,
                                             loop_, scheduler_.get(),
                                             rng_.fork(), op_options);
  op->set_outcome_sink(outcome_sink_);
  op->set_tracer(tracer_);
  ActionOperator* raw = op.get();
  operators_.emplace(action->name, std::move(op));
  return raw;
}

void ContinuousQueryExecutor::set_outcome_sink(OutcomeSink sink) {
  outcome_sink_ = std::move(sink);
  for (auto& [name, op] : operators_) op->set_outcome_sink(outcome_sink_);
}

void ContinuousQueryExecutor::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& [name, op] : operators_) op->set_tracer(tracer_);
}

void ContinuousQueryExecutor::start() {
  if (started_) return;
  started_ = true;
  loop_->schedule(options_.epoch, [this]() { on_tick(); });
}

void ContinuousQueryExecutor::on_tick() {
  ++tick_no_;
  // Advance the shared acquisition plane: the broker issues one batched
  // scan per device type with due subscriptions and fans the tuples out to
  // every due query. Once the last due subscriber has been served, flush
  // every action operator so requests from concurrent queries are
  // scheduled as one batch (the group optimization of Section 2.3 / the
  // "short time interval" batching of Section 5).
  if (AORTA_TRACE_ENABLED(tracer_)) {
    // Traced tick: an `epoch` span brackets the processing window (tick to
    // last action flush), with an `action` span per operator flush. The
    // closures below allocate, which is why the untraced path stays the
    // plain loop.
    aorta::util::TimePoint epoch_start = loop_->now();
    std::uint64_t tick_no = tick_no_;
    broker_->tick([this, epoch_start, tick_no]() {
      auto outstanding = std::make_shared<std::size_t>(1);
      std::function<void()> done = [this, epoch_start, tick_no,
                                    outstanding]() {
        if (--*outstanding > 0) return;
        AORTA_TRACE_SPAN(tracer_, obs::SpanCat::kEpoch,
                         "epoch:" + std::to_string(tick_no), epoch_start,
                         loop_->now(), std::string());
      };
      for (auto& [name, op] : operators_) {
        if (!op->has_pending()) continue;
        ++*outstanding;
        aorta::util::TimePoint flush_start = loop_->now();
        op->flush([this, name = name, flush_start, done]() {
          AORTA_TRACE_SPAN(tracer_, obs::SpanCat::kAction, "flush:" + name,
                           flush_start, loop_->now(), std::string());
          done();
        });
      }
      done();
    });
  } else {
    broker_->tick([this]() {
      for (auto& [name, op] : operators_) {
        if (op->has_pending()) {
          op->flush([]() {});
        }
      }
    });
  }

  // Fixed cadence, independent of how long evaluation takes.
  loop_->schedule(options_.epoch, [this]() { on_tick(); });
}

// ---- delivery-group matching -----------------------------------------------

void ContinuousQueryExecutor::stage_group_batch(
    DeliveryGroup& group, const std::vector<comm::Tuple>& tuples,
    std::uint64_t issue_tick) {
  ++group.deliveries;
  StagedBatch staged;
  staged.group = &group;
  staged.tuples = tuples;  // the broker's fan-out copy dies with the call
  staged.devices.reserve(tuples.size());
  staged.seqs.reserve(tuples.size());
  for (const comm::Tuple& tuple : tuples) {
    auto [it, fresh] = group.device_numbers.try_emplace(
        tuple.source_device(),
        static_cast<std::uint32_t>(group.device_numbers.size()));
    if (fresh) group.row_seq.push_back(0);
    staged.devices.push_back(it->second);
    staged.seqs.push_back(++group.row_seq[it->second]);
  }
  staged.issue_tick = issue_tick;
  staged_.push_back(std::move(staged));
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kEval, "eval:" + group.type,
                      loop_->now(),
                      std::to_string(tuples.size()) + " tuple(s), " +
                          std::to_string(group.index.size()) +
                          " member(s)");
}

void ContinuousQueryExecutor::process_staged() {
  if (staged_.empty()) return;
  std::vector<StagedBatch> staged = std::move(staged_);
  staged_.clear();

  // Probe each tuple, then evaluate the (member, tuple) pairs in global
  // (generation, tuple) order: registration order, whichever members the
  // index let through. With the index off the probe is skipped and every
  // member is a residual pair. Index handles are member-table slots; each
  // pair records its slot's generation now, before any hook runs.
  struct Pair {
    std::uint64_t generation;
    std::uint32_t slot;
    std::uint32_t batch;
    std::uint32_t tuple;
    bool candidate;
  };
  std::vector<Pair> pairs;
  std::vector<PredicateIndex::Handle> candidates;
  auto add_pair = [&](PredicateIndex::Handle h, std::size_t b, std::size_t t,
                      bool candidate) {
    const auto slot = static_cast<std::uint32_t>(h);
    pairs.push_back({live_[slot].generation, slot,
                     static_cast<std::uint32_t>(b),
                     static_cast<std::uint32_t>(t), candidate});
  };
  for (std::size_t b = 0; b < staged.size(); ++b) {
    const StagedBatch& s = staged[b];
    std::size_t indexed =
        s.group->index.size() - s.group->index.residual_size();
    for (std::size_t t = 0; t < s.tuples.size(); ++t) {
      if (options_.predicate_index) {
        candidates.clear();
        s.group->index.probe(s.tuples[t], &candidates);
        ++index_stats_.probes;
        index_stats_.candidates += candidates.size();
        index_stats_.pruned += indexed - candidates.size();
        for (PredicateIndex::Handle h : candidates) add_pair(h, b, t, true);
      }
      for (PredicateIndex::Handle h : s.group->index.residuals()) {
        add_pair(h, b, t, false);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.generation != b.generation) return a.generation < b.generation;
    return a.tuple < b.tuple;
  });

  // From here on, hooks run: they may drop any member (its slot then
  // fails the generation check, even once reused) and destroy whole
  // groups, so nothing below reads group state.
  for (const Pair& p : pairs) {
    Aq* aq = live_aq(p.slot, p.generation);
    if (aq == nullptr) continue;
    const StagedBatch& s = staged[p.batch];
    if (aq->join_tick >= s.issue_tick) continue;  // joined after issue
    process_event_tuple(*aq, s.tuples[p.tuple], s.devices[p.tuple],
                        s.seqs[p.tuple], p.candidate);
  }
}

void ContinuousQueryExecutor::process_event_tuple(
    Aq& aq, const comm::Tuple& tuple, std::uint32_t device_number,
    std::uint64_t seq, bool candidate) {
  BindingFrame frame;
  frame.size = aq.bindings;
  frame.set(aq.event_binding, &tuple);

  bool satisfied;
  if (candidate && aq.conjunct->exact) {
    // The index constraint covers the whole predicate set: candidacy IS
    // the verdict.
    satisfied = true;
    ++index_stats_.exact_skips;
  } else {
    if (candidate) ++index_stats_.residual_evals;
    satisfied = true;
    for (const EvalProgram& pred : aq.event_programs()) {
      if (!eval_pred(pred, frame)) {
        satisfied = false;
        break;
      }
    }
  }

  // Edge detection: an event fires when this row satisfies the predicates
  // and the device's previous delivered row did not (the object *started*
  // moving; see Aq::last_true_seq). Level-triggered queries (no sensory
  // predicates) fire every epoch while satisfied.
  if (!satisfied) return;
  if (aq.edge_triggered) {
    std::vector<std::uint64_t>& last = aq.last_true_seq;
    if (device_number >= last.size()) last.resize(device_number + 1, 0);
    std::uint64_t& prev = last[device_number];
    const bool fire = prev == 0 || prev + 1 != seq;
    prev = seq;
    if (!fire) return;
  }
  fire_event(&aq, tuple, frame);
}

void ContinuousQueryExecutor::fire_event(Aq* aq, const comm::Tuple& tuple,
                                         const BindingFrame& frame) {
  ++aq->stats.events;
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kEval, "event:" + aq->name,
                      loop_->now(),
                      "device " + tuple.source_device() +
                          (tuple.degraded() ? " (degraded)" : ""));

  // Materialize the query's projections against the event tuple — the
  // continuous result stream of a monitoring query.
  if (const std::span<const EvalProgram> projections =
          aq->projection_programs();
      !projections.empty()) {
    const std::vector<std::string>& labels = aq->labels;
    Row row;
    row.reserve(projections.size());
    for (std::size_t i = 0; i < projections.size(); ++i) {
      auto v = eval_expr(projections[i], frame);
      row.emplace_back(labels[i],
                       v.is_ok() ? std::move(v).value() : device::Value{});
    }
    TimestampedRow stamped{loop_->now(), std::move(row), tuple.degraded()};
    if (aq->hooks.on_row) {
      const std::uint32_t slot = aq->slot;
      const std::uint64_t generation = aq->generation;
      aq->hooks.on_row(aq->name, std::move(stamped));
      aq = live_aq(slot, generation);  // the hook may have dropped it
      if (aq == nullptr) return;
    } else {
      keep_result(*aq, std::move(stamped));
    }
  }

  for (const ActionCall& call : aq->actions) {
    std::vector<device::DeviceId> candidates =
        enumerate_candidates(*aq, call, frame);
    if (candidates.empty()) continue;  // no device covers this event

    // Instantiate the request. Arguments are evaluated against the event
    // tuple; the binding argument (which identifies the executing device)
    // is finalized per selected device at execution time.
    sched::ActionRequest request;
    request.query_id = aq->name;
    request.candidates = std::move(candidates);
    for (std::size_t a = 0; a < call.arg_programs.size(); ++a) {
      if (a == call.action->binding_param) {
        request.action_args.push_back(Value{});  // filled at execution
        continue;
      }
      auto v = eval_expr(call.arg_programs[a], frame);
      request.action_args.push_back(v.is_ok() ? std::move(v).value() : Value{});
    }
    if (call.action->request_params) {
      Status s = call.action->request_params(request.action_args, &request);
      if (!s.is_ok()) {
        AORTA_LOG(kWarn, "query")
            << aq->name << ": request_params failed: " << s.to_string();
        continue;
      }
    }
    ++aq->stats.requests_issued;
    AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kAction, "request:" + aq->name,
                        loop_->now(),
                        call.action->name + " with " +
                            std::to_string(request.candidates.size()) +
                            " candidate(s)");
    operator_for(call.action)->enqueue(std::move(request));
  }
}

void ContinuousQueryExecutor::deliver_agg_row(std::uint32_t slot,
                                              std::uint64_t generation,
                                              TimestampedRow row) {
  Aq* owner = live_aq(slot, generation);
  if (owner == nullptr) return;
  ++owner->stats.events;
  if (owner->hooks.on_row) {
    owner->hooks.on_row(owner->name, std::move(row));
    return;
  }
  keep_result(*owner, std::move(row));
}

void ContinuousQueryExecutor::keep_result(Aq& aq, TimestampedRow row) {
  if (aq.results == nullptr) {
    aq.results = std::make_unique<std::deque<TimestampedRow>>();
  }
  aq.results->push_back(std::move(row));
  while (aq.results->size() > kResultCap) aq.results->pop_front();
}

std::vector<device::DeviceId> ContinuousQueryExecutor::enumerate_candidates(
    const Aq& aq, const ActionCall& call, const BindingFrame& frame) {
  std::vector<device::DeviceId> out;

  if (call.candidate_schema == nullptr) {
    // Action on the event device itself (e.g. beep(s.id)).
    const comm::Tuple* event_tuple = frame[aq.event_binding];
    if (event_tuple != nullptr) out.push_back(event_tuple->source_device());
    return out;
  }

  // compile() checked that the candidate table is the action's type.
  BindingFrame joined = frame;
  for (const device::DeviceId& id :
       registry_->ids_of_type(call.action->device_type)) {
    const auto* attrs = registry_->static_attrs(id);
    if (attrs == nullptr) continue;
    comm::Tuple cand(call.candidate_schema, id);
    for (const auto& [name, value] : *attrs) cand.set_by_name(name, value);

    joined.set(call.candidate_binding, &cand);
    bool ok = true;
    for (const EvalProgram& pred : aq.join_programs()) {
      if (!eval_pred(pred, joined)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(id);
  }
  return out;
}

const QueryStats* ContinuousQueryExecutor::query_stats(
    const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) return nullptr;
  const Aq& aq = *it->second;
  if (aq.group != nullptr) {
    // Epochs derives from the group's delivery count so per-tick work
    // stays O(groups), not O(members). The base discounts
    // deliveries that predate this member; the clamp covers the window
    // where a discounted in-flight batch has not landed yet.
    std::uint64_t delivered = aq.group->deliveries;
    aq.stats.epochs =
        delivered >= aq.epochs_base ? delivered - aq.epochs_base : 0;
  }
  return &aq.stats;
}

std::size_t ContinuousQueryExecutor::index_entries() const {
  std::size_t n = 0;
  for (const auto& [key, group] : groups_) n += group->index.size();
  return n;
}

void ContinuousQueryExecutor::set_index_metrics(obs::MetricsRegistry* metrics,
                                                std::string prefix) {
  index_metrics_ = obs::MetricsRegistry::Scoped(metrics, std::move(prefix));
  if (!index_metrics_.live()) return;
  index_metrics_.enroll_counter("probes", &index_stats_.probes);
  index_metrics_.enroll_counter("candidates", &index_stats_.candidates);
  index_metrics_.enroll_counter("residual_evals",
                                &index_stats_.residual_evals);
  index_metrics_.enroll_counter("exact_skips", &index_stats_.exact_skips);
  index_metrics_.enroll_counter("pruned", &index_stats_.pruned);
  index_metrics_.enroll_gauge("entries", [this]() {
    return static_cast<std::int64_t>(index_entries());
  });
  index_metrics_.enroll_gauge("groups", [this]() {
    return static_cast<std::int64_t>(groups_.size());
  });
}

void ContinuousQueryExecutor::set_agg_metrics(obs::MetricsRegistry* metrics,
                                              std::string eval_prefix,
                                              std::string cache_prefix) {
  agg_eval_metrics_ =
      obs::MetricsRegistry::Scoped(metrics, std::move(eval_prefix));
  agg_cache_metrics_ =
      obs::MetricsRegistry::Scoped(metrics, std::move(cache_prefix));
  const AggStats& stats = agg_cache_->stats();
  if (agg_eval_metrics_.live()) {
    agg_eval_metrics_.enroll_counter("tuples_evaluated",
                                     &stats.tuples_evaluated);
    agg_eval_metrics_.enroll_counter("emissions", &stats.emissions);
    agg_eval_metrics_.enroll_counter("panes_closed", &stats.panes_closed);
  }
  if (agg_cache_metrics_.live()) {
    agg_cache_metrics_.enroll_counter("hits", &stats.hits);
    agg_cache_metrics_.enroll_counter("misses", &stats.misses);
    agg_cache_metrics_.enroll_counter("subsumptions", &stats.subsumptions);
    agg_cache_metrics_.enroll_gauge("live_windows", [this]() {
      return static_cast<std::int64_t>(agg_cache_->entry_count());
    });
  }
}

QueryActionStats ContinuousQueryExecutor::action_stats(
    const std::string& name) const {
  QueryActionStats total;
  for (const auto& [op_name, op] : operators_) {
    auto it = op->query_stats().find(name);
    if (it == op->query_stats().end()) continue;
    total.requests += it->second.requests;
    total.usable += it->second.usable;
    total.degraded += it->second.degraded;
    total.failed += it->second.failed;
    total.no_candidate += it->second.no_candidate;
  }
  return total;
}

std::vector<TimestampedRow> ContinuousQueryExecutor::recent_results(
    const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end() || it->second->results == nullptr) return {};
  const std::deque<TimestampedRow>& results = *it->second->results;
  return {results.begin(), results.end()};
}

std::vector<const ActionOperator*> ContinuousQueryExecutor::operators() const {
  std::vector<const ActionOperator*> out;
  for (const auto& [name, op] : operators_) out.push_back(op.get());
  return out;
}

void ContinuousQueryExecutor::run_select(
    const SelectStmt& stmt,
    std::function<void(Result<std::vector<Row>>)> done) {
  auto plan = plan_select(stmt);
  if (!plan.is_ok()) {
    done(Result<std::vector<Row>>(plan.status()));
    return;
  }
  run_plan(std::move(plan).value(), std::move(done));
}

Result<std::shared_ptr<const CompiledQuery>>
ContinuousQueryExecutor::plan_select(const SelectStmt& stmt) {
  using PlanResult = Result<std::shared_ptr<const CompiledQuery>>;
  if (!stmt.group_by.empty() || stmt.window_s > 0.0) {
    return PlanResult(aorta::util::invalid_argument_error(
        "GROUP BY / WINDOW apply to continuous queries (CREATE AQ), not "
        "one-shot SELECT"));
  }
  auto compiled = compile(stmt, *catalog_, *registry_, /*one_shot=*/true);
  if (!compiled.is_ok()) return PlanResult(compiled.status());
  auto q = std::make_shared<const CompiledQuery>(std::move(compiled).value());
  eval_stats_.programs_compiled += q->program_count();
  // Aggregates collapse the result to one row; without GROUP BY a plain
  // projection beside them has no single value.
  if (!q->aggregates.empty() && !q->projections.empty()) {
    return PlanResult(aorta::util::invalid_argument_error(
        "cannot mix aggregates with plain projections (no GROUP BY)"));
  }
  return PlanResult(std::move(q));
}

void ContinuousQueryExecutor::run_plan(
    std::shared_ptr<const CompiledQuery> q,
    std::function<void(Result<std::vector<Row>>)> done) {
  // One live acquisition per table (one-shot SELECTs read sensory
  // attributes on every table, unlike continuous candidate enumeration
  // which is restricted to the static cache). Acquisitions go through the
  // shared plane, so concurrent SELECTs — and SELECTs racing an AQ's
  // epoch batch — dedupe against in-flight reads and the freshness cache.
  struct MultiScan {
    std::vector<std::string> aliases;
    std::vector<std::vector<comm::Tuple>> tuples;
    std::size_t outstanding = 0;
  };
  auto multi = std::make_shared<MultiScan>();
  for (const auto& ref : q->tables) multi->aliases.push_back(ref.alias);
  multi->tuples.resize(multi->aliases.size());
  multi->outstanding = multi->aliases.size();

  auto finish = [this, q, multi, done = std::move(done)]() {
    std::vector<Row> rows;
    std::vector<AggFold> folds(q->aggregates.size());

    auto emit = [&](const BindingFrame& frame) {
      // Every conjunct runs (no short-circuit across conjuncts).
      bool ok = true;
      for (const EvalProgram& pred : q->event_programs) {
        ok = eval_pred(pred, frame) && ok;
      }
      for (const EvalProgram& pred : q->join_programs) {
        ok = eval_pred(pred, frame) && ok;
      }
      if (!ok) return;
      if (!q->aggregates.empty()) {
        for (std::size_t i = 0; i < q->aggregates.size(); ++i) {
          const CompiledAggregate& agg = q->aggregates[i];
          if (agg.arg == nullptr) {  // COUNT(*)
            ++folds[i].count;
            continue;
          }
          auto v = eval_expr(agg.program, frame);
          if (v.is_ok()) folds[i].add(v.value());
        }
        return;
      }
      Row row;
      row.reserve(q->projections.size());
      for (std::size_t p = 0; p < q->projections.size(); ++p) {
        auto v = eval_expr(q->projection_programs[p], frame);
        row.emplace_back(q->labels[p],
                         v.is_ok() ? std::move(v).value() : Value{});
      }
      rows.push_back(std::move(row));
    };

    // Nested-loop join over the scanned tables (at most two by the
    // compiler's restriction). Frame slots follow the FROM-clause order,
    // which is exactly multi->aliases' order.
    BindingFrame frame;
    frame.size = multi->aliases.size();
    if (multi->tuples.size() == 1) {
      for (const comm::Tuple& tuple : multi->tuples[0]) {
        frame.set(0, &tuple);
        emit(frame);
      }
    } else {
      for (const comm::Tuple& a : multi->tuples[0]) {
        for (const comm::Tuple& b : multi->tuples[1]) {
          frame.set(0, &a);
          frame.set(1, &b);
          emit(frame);
        }
      }
    }
    if (!q->aggregates.empty()) {
      Row row;
      for (std::size_t i = 0; i < q->aggregates.size(); ++i) {
        row.emplace_back(q->aggregates[i].label,
                         folds[i].finalize(q->aggregates[i].op));
      }
      rows.push_back(std::move(row));
    }
    done(std::move(rows));
  };
  // Every table's acquisition callback shares the one completion, so
  // `done` and whatever it captured are never copied.
  auto shared_finish = std::make_shared<decltype(finish)>(std::move(finish));

  for (std::size_t t = 0; t < multi->aliases.size(); ++t) {
    // The plan may serve other runs: its needed sets are copied.
    std::set<std::string> needed;
    auto it = q->needed_attrs.find(multi->aliases[t]);
    if (it != q->needed_attrs.end()) needed = it->second;
    broker_->acquire_once(
        q->table_types.at(multi->aliases[t]), std::move(needed),
        [multi, t, shared_finish](std::vector<comm::Tuple> tuples) {
          multi->tuples[t] = std::move(tuples);
          if (--multi->outstanding == 0) (*shared_finish)();
        });
  }
}

}  // namespace aorta::query
