#include "shard/czar.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/strings.h"

namespace aorta::shard {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;
using aorta::util::TimePoint;
using core::ExecResult;

namespace {
// Salt for the retry-jitter RNG stream: constant-derived from the config
// seed (never forked from the main stream) so retrying perturbs nothing.
constexpr std::uint64_t kRetryJitterSalt = 0x52e11ab1eca11ull;
}  // namespace

Czar::Czar(core::Aorta* host, Options options)
    : host_(host),
      options_(std::move(options)),
      loop_(&host->loop()),
      network_(&host->network()),
      tracer_(&host->tracer()),
      rpc_(network_, kCzarNode),
      reliable_call_(&rpc_, loop_,
                     aorta::util::Rng(host->config().seed ^ kRetryJitterSalt),
                     host->config().reliable_backplane ? kDispatchAttempts
                                                       : 1) {
  (void)network_->attach(kCzarNode, this, backplane_link());
  rpc_.set_tracer(tracer_);
  shards_.resize(static_cast<std::size_t>(options_.num_shards));
  for (ShardState& s : shards_) s.last_msg = loop_->now();
  merger_ = std::make_unique<Merger>(
      options_.num_shards,
      [this](std::uint64_t id, query::TimestampedRow& row) {
        on_row_released(id, row);
      });

  metrics_ = host->metrics().scoped("shard.czar.");
  metrics_.enroll_counter("aqs_registered", &stats_.aqs_registered);
  metrics_.enroll_counter("aqs_dropped", &stats_.aqs_dropped);
  metrics_.enroll_counter("selects", &stats_.selects);
  metrics_.enroll_counter("fragment_errors", &stats_.fragment_errors);
  metrics_.enroll_counter("rows_received", &stats_.rows_received);
  metrics_.enroll_counter("outcomes_received", &stats_.outcomes_received);
  metrics_.enroll_counter("heartbeats_received", &stats_.heartbeats_received);
  metrics_.enroll_counter("stale_gen_msgs", &stats_.stale_gen_msgs);
  metrics_.enroll_counter("ooo_buffered", &stats_.ooo_buffered);
  metrics_.enroll_counter("stale_query_rows", &stats_.stale_query_rows);
  metrics_.enroll_counter("rejected_groups", &stats_.rejected_groups);
  metrics_.enroll_counter("workers_marked_down", &stats_.workers_marked_down);
  metrics_.enroll_counter("reregistrations", &stats_.reregistrations);
  metrics_.enroll_counter("dup_msgs_dropped", &stats_.dup_msgs_dropped);
  metrics_.enroll_counter("acks_sent", &stats_.acks_sent);
  metrics_.enroll_counter("nacks_sent", &stats_.nacks_sent);
  metrics_.enroll_counter("partial_selects", &stats_.partial_selects);
  metrics_.enroll_counter("fragments_pruned", &stats_.fragments_pruned);
  // The reliable dispatcher's own counters, rooted at "net.reliable." (one
  // section for the whole backplane; the Plane adds worker-side replay
  // gauges to it).
  reliable_metrics_ = host->metrics().scoped("net.reliable.");
  const net::ReliableCallStats& rs = reliable_call_.stats();
  reliable_metrics_.enroll_counter("calls", &rs.calls);
  reliable_metrics_.enroll_counter("attempts", &rs.attempts);
  reliable_metrics_.enroll_counter("retries", &rs.retries);
  reliable_metrics_.enroll_counter("giveups", &rs.giveups);
  reliable_metrics_.enroll_counter("budget_exhausted", &rs.budget_exhausted);
  const MergerStats& ms = merger_->stats();
  metrics_.enroll_counter("merge.rows_in", &ms.rows_in);
  metrics_.enroll_counter("merge.rows_out", &ms.rows_out);
  metrics_.enroll_counter("merge.release_passes", &ms.release_passes);
  metrics_.enroll_gauge("merge.buffered", [this]() {
    return static_cast<std::int64_t>(merger_->buffered());
  });
  metrics_.enroll_gauge("aqs_active", [this]() {
    return static_cast<std::int64_t>(aqs_.size());
  });
  metrics_.enroll_gauge("workers_live", [this]() {
    std::int64_t live = 0;
    for (const ShardState& s : shards_) live += s.live ? 1 : 0;
    return live;
  });
  // Per-worker backpressure view off the RPC client's endpoint counters.
  for (int i = 0; i < options_.num_shards; ++i) {
    const std::string base = "peers." + std::to_string(i) + ".";
    const net::NodeId node = worker_node(i);
    auto peer = [this, node](std::uint64_t net::RpcEndpointStats::*field) {
      const auto& stats = rpc_.endpoint_stats();
      auto it = stats.find(node);
      return it == stats.end()
                 ? std::int64_t{0}
                 : static_cast<std::int64_t>(it->second.*field);
    };
    metrics_.enroll_gauge(base + "calls", [peer]() {
      return peer(&net::RpcEndpointStats::calls);
    });
    metrics_.enroll_gauge(base + "in_flight", [peer]() {
      return peer(&net::RpcEndpointStats::in_flight);
    });
    metrics_.enroll_gauge(base + "max_in_flight", [peer]() {
      return peer(&net::RpcEndpointStats::max_in_flight);
    });
    metrics_.enroll_gauge(base + "timeouts", [peer]() {
      return peer(&net::RpcEndpointStats::timeouts);
    });
    metrics_.enroll_gauge(base + "slow_replies", [peer]() {
      return peer(&net::RpcEndpointStats::slow_replies);
    });
  }

  auto alive = alive_;
  loop_->schedule(kHeartbeatInterval, [this, alive]() {
    if (*alive) check_liveness();
  });
}

Czar::~Czar() {
  *alive_ = false;
  metrics_.unenroll_all();
  reliable_metrics_.unenroll_all();
  (void)network_->detach(kCzarNode);
}

FragmentSpec Czar::make_spec(const std::string& name, const std::string& sql,
                             bool once, int shard, std::uint64_t id) const {
  FragmentSpec spec;
  spec.name = name;
  spec.sql = sql;
  spec.once = once;
  spec.gen = shards_[static_cast<std::size_t>(shard)].gen;
  spec.id = id;
  return spec;
}

void Czar::call_worker(int shard, const char* kind,
                       std::map<std::string, std::string> fields,
                       net::RpcCallback callback, std::size_t payload_bytes) {
  fields[kIdemSeqField] = std::to_string(dispatch_seq_++);
  const std::uint64_t gen = shards_[static_cast<std::size_t>(shard)].gen;
  reliable_call_.call(
      worker_node(shard), kind, std::move(fields),
      [this, shard, gen, callback = std::move(callback)](
          Result<net::Message> reply) {
        // The give-up rule: a worker acks every fragment in the event that
        // receives it, so a call that ran out of attempts or retry budget
        // means the control path is broken. Mark the shard down (unless
        // it was re-synced since) and let recovery re-register it.
        if (!reply.is_ok() &&
            shards_[static_cast<std::size_t>(shard)].gen == gen) {
          mark_down(shard);
        }
        callback(std::move(reply));
      },
      payload_bytes);
}

void Czar::send_register(int shard, const FragmentSpec& spec,
                         net::RpcCallback callback) {
  net::Message tmp;
  fragment_to_fields(spec, &tmp);
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kFragment,
                      "czar:dispatch:" + worker_node(shard), loop_->now(),
                      spec.once ? "select" : spec.name);
  call_worker(shard, kFragmentRegister, std::move(tmp.fields),
              std::move(callback), 64 + spec.sql.size());
}

void Czar::send_drop(int shard, const std::string& name, std::uint64_t id) {
  std::map<std::string, std::string> fields{{"name", name}};
  fields["id"] = std::to_string(id);
  fields["gen"] = std::to_string(shards_[static_cast<std::size_t>(shard)].gen);
  call_worker(shard, kFragmentDrop, std::move(fields),
              [](Result<net::Message>) {}, 64);
}

std::vector<int> Czar::dispatch_to(const std::vector<int>& targets) {
  stats_.fragments_pruned +=
      static_cast<std::uint64_t>(options_.num_shards) - targets.size();
  std::vector<int> live;
  for (int i : targets) {
    if (shards_[static_cast<std::size_t>(i)].live) live.push_back(i);
  }
  return live;
}

std::vector<std::string> Czar::aq_names() const {
  std::vector<std::string> names;
  names.reserve(ids_.size());
  for (const auto& [name, id] : ids_) names.push_back(name);
  return names;
}

// ---- declarative interface ------------------------------------------------

namespace {

// The sharded planner's supported statement surface. Returns an error
// naming the construct so rejections are actionable. avg() is mergeable
// everywhere: workers rewrite each avg(e) into (sum(e), count(e))
// partials — once every target settled for one-shot SELECTs, per window
// instant behind the merge frontier for continuous AQs — and the czar
// finalizes sum/count.
Status shardable(const query::SelectStmt& stmt) {
  if (stmt.from.size() > 1) {
    return aorta::util::invalid_argument_error(
        "multi-table joins are not supported through the sharded plane "
        "(devices of different tables may live on different shards)");
  }
  return Status::ok();
}

}  // namespace

// Build the czar's merge plan: the shipped column ops mirror worker.cc's
// partials rewrite (avg -> sum + appended count, then the hidden group
// columns).
std::optional<Czar::AggPlan> Czar::make_agg_plan(
    const query::SelectStmt& stmt) {
  AggPlan plan;
  plan.select_size = stmt.select_list.size();
  bool any = false;
  for (std::size_t j = 0; j < stmt.select_list.size(); ++j) {
    std::optional<query::AggOp> op = query::agg_op(*stmt.select_list[j]);
    if (op == query::AggOp::kAvg) {
      plan.avg_cols.push_back(j);
      plan.avg_labels.push_back(stmt.select_list[j]->to_string());
      op = query::AggOp::kSum;
    }
    if (!op) plan.group_cols.push_back(j);
    any |= op.has_value();
    plan.ops.push_back(op);
  }
  if (!any) return std::nullopt;
  for (std::size_t k = 0; k < plan.avg_cols.size(); ++k) {
    plan.ops.push_back(query::AggOp::kCount);
  }
  const std::size_t hidden = hidden_group_columns(stmt).size();
  for (std::size_t k = 0; k < hidden; ++k) {
    plan.group_cols.push_back(plan.ops.size());
    plan.ops.push_back(std::nullopt);
  }
  return plan;
}

void Czar::exec_async(
    const std::string& sql, core::ExecOptions options,
    std::function<void(Result<ExecResult>)> done) {
  auto parsed = query::parse(sql);
  if (!parsed.is_ok()) {
    AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kParse, "czar:parse",
                        loop_->now(), "error: " + sql);
    done(Result<ExecResult>(parsed.status()));
    return;
  }
  exec_async(std::move(parsed).value(), sql, std::move(options),
             std::move(done));
}

void Czar::exec_async(
    query::Statement s, const std::string& sql, core::ExecOptions options,
    std::function<void(Result<ExecResult>)> done) {
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kParse, "czar:parse",
                      loop_->now(), sql);
  switch (s.kind) {
    case query::Statement::Kind::kSelect: {
      Status ok = shardable(s.select);
      if (!ok.is_ok()) {
        done(Result<ExecResult>(ok));
        return;
      }
      exec_select(s.select, sql, target_shards(s.select, options_.num_shards),
                  std::move(done));
      return;
    }

    case query::Statement::Kind::kCreateAq: {
      Status ok = shardable(s.create_aq.select);
      if (!ok.is_ok()) {
        done(Result<ExecResult>(ok));
        return;
      }
      std::string name = options.name_prefix + s.create_aq.name;
      if (ids_.count(name) > 0) {
        done(Result<ExecResult>(aorta::util::already_exists_error(
            "continuous query already registered: " + name)));
        return;
      }
      const std::uint64_t id = next_id_++;
      AqState aq;
      aq.name = name;
      aq.sql = sql;
      aq.options = std::move(options);
      aq.agg = make_agg_plan(s.create_aq.select);
      aq.announced.assign(static_cast<std::size_t>(options_.num_shards),
                          false);
      aq.targets = target_shards(s.create_aq.select, options_.num_shards);
      const std::vector<int> targets = dispatch_to(aq.targets);
      aqs_.emplace(id, std::move(aq));
      ids_.emplace(name, id);
      ++stats_.aqs_registered;

      // Fan out to the live targets; barrier on all replies settling. A
      // worker-side error (all shards fail identically: same template)
      // unregisters and reports; timeouts are left to supervision.
      struct Barrier {
        int remaining = 0;
        std::string error;
        std::function<void(Result<ExecResult>)> done;
      };
      auto barrier = std::make_shared<Barrier>();
      barrier->done = std::move(done);
      barrier->remaining = static_cast<int>(targets.size());
      auto alive = alive_;
      auto settle = [this, alive, name, id, barrier]() {
        if (--barrier->remaining > 0) return;
        if (!barrier->error.empty()) {
          if (*alive) {
            if (auto it = aqs_.find(id); it != aqs_.end()) {
              const std::vector<int> unwind = std::move(it->second.targets);
              aqs_.erase(it);
              ids_.erase(name);
              ++stats_.fragment_errors;
              for (int i : dispatch_to(unwind)) send_drop(i, name, id);
            }
          }
          barrier->done(Result<ExecResult>(
              aorta::util::invalid_argument_error(barrier->error)));
          return;
        }
        barrier->done(
            ExecResult{"continuous query " + name + " registered", {}});
      };
      if (targets.empty()) {
        // Every target is down: keep the registration; recovery replays it.
        barrier->done(
            ExecResult{"continuous query " + name + " registered", {}});
        return;
      }
      for (int i : targets) {
        send_register(i, make_spec(name, sql, /*once=*/false, i, id),
                      [barrier, settle](Result<net::Message> reply) {
                        if (reply.is_ok() &&
                            reply.value().kind == kFragmentError &&
                            barrier->error.empty()) {
                          barrier->error = reply.value().field("error");
                        }
                        settle();
                      });
      }
      return;
    }

    case query::Statement::Kind::kDropAq: {
      std::string name = options.name_prefix + s.drop_aq.name;
      Status dropped = drop_aq(name);
      if (!dropped.is_ok()) {
        done(Result<ExecResult>(dropped));
        return;
      }
      done(ExecResult{"continuous query " + name + " dropped", {}});
      return;
    }

    case query::Statement::Kind::kCreateAction:
    case query::Statement::Kind::kShow:
    case query::Statement::Kind::kExplain:
      break;
  }
  done(Result<ExecResult>(aorta::util::invalid_argument_error(
      "statement not supported through the sharded plane (num_shards > 0): " +
      sql)));
}

Status Czar::drop_aq(const std::string& name) {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return aorta::util::not_found_error("unknown continuous query: " + name);
  }
  const std::uint64_t id = it->second;
  ids_.erase(it);
  auto aq = aqs_.find(id);
  const std::vector<int> targets = std::move(aq->second.targets);
  aqs_.erase(aq);
  ++stats_.aqs_dropped;
  merger_->forget_query(id);
  agg_pending_.erase(id);
  for (int i : dispatch_to(targets)) send_drop(i, name, id);
  return Status::ok();
}

// ---- one-shot SELECT ------------------------------------------------------

namespace {

// Fold one partial-aggregate value into the accumulator. Null partials
// (shards with no matching devices) are skipped.
void combine_value(device::Value& acc, const device::Value& v,
                   query::AggOp op) {
  if (std::holds_alternative<std::monostate>(v)) return;
  if (std::holds_alternative<std::monostate>(acc)) {
    acc = v;
    return;
  }
  switch (op) {
    case query::AggOp::kCount:
    case query::AggOp::kSum: {
      const std::int64_t* ai = std::get_if<std::int64_t>(&acc);
      const std::int64_t* bi = std::get_if<std::int64_t>(&v);
      if (ai != nullptr && bi != nullptr) {
        acc = *ai + *bi;
        return;
      }
      double a = 0.0, b = 0.0;
      if (device::value_as_double(acc, &a) &&
          device::value_as_double(v, &b)) {
        acc = a + b;
      }
      return;
    }
    case query::AggOp::kMin:
    case query::AggOp::kMax: {
      // Partials come from query::AggFold::finalize, which folds min/max
      // numerically and ships a double (or NULL, skipped above).
      double a = 0.0, b = 0.0;
      if (!device::value_as_double(acc, &a) ||
          !device::value_as_double(v, &b)) {
        return;
      }
      if (op == query::AggOp::kMin ? b < a : a < b) acc = v;
      return;
    }
    case query::AggOp::kAvg:  // shipped as a sum partial; never planned
      return;
  }
}

}  // namespace

void Czar::AggPlan::fold(query::Row& acc, const query::Row& row) const {
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (ops[j]) combine_value(acc[j].second, row[j].second, *ops[j]);
  }
}

void Czar::AggPlan::finalize(query::Row& row) const {
  // count() over shards that all skipped is 0, not null.
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (ops[j] == query::AggOp::kCount &&
        std::holds_alternative<std::monostate>(row[j].second)) {
      row[j].second = std::int64_t{0};
    }
  }
  // avg = sum/count from the folded partials (null over an empty union);
  // restore the original label and drop the helper columns.
  for (std::size_t k = 0; k < avg_cols.size(); ++k) {
    const std::size_t j = avg_cols[k];
    double sum = 0.0;
    double n = 0.0;
    if (device::value_as_double(row[select_size + k].second, &n) && n > 0.0 &&
        device::value_as_double(row[j].second, &sum)) {
      row[j].second = sum / n;
    } else {
      row[j].second = device::Value{};
    }
    row[j].first = avg_labels[k];
  }
  row.resize(select_size);
}

std::vector<query::Row> Czar::merge_select(
    const std::optional<AggPlan>& plan,
    std::vector<std::vector<query::TimestampedRow>>& partials) {
  std::vector<query::Row> rows;
  if (!plan) {
    // Plain projection: union is concatenation in shard-index order.
    for (auto& partial : partials) {
      for (auto& r : partial) rows.push_back(std::move(r.row));
    }
    return rows;
  }
  // Aggregates: one output row, columns folded across per-shard partials
  // by position.
  query::Row out;
  for (auto& partial : partials) {
    for (auto& r : partial) {
      if (r.row.size() != plan->ops.size()) continue;  // malformed partial
      if (out.empty()) {
        out = std::move(r.row);
      } else {
        plan->fold(out, r.row);
      }
    }
  }
  if (out.empty()) return rows;
  plan->finalize(out);
  rows.push_back(std::move(out));
  return rows;
}

void Czar::exec_select(
    const query::SelectStmt& stmt, const std::string& sql,
    const std::vector<int>& targets,
    std::function<void(Result<ExecResult>)> done) {
  ++stats_.selects;
  const std::vector<int> live = dispatch_to(targets);
  if (live.empty()) {
    done(Result<ExecResult>(aorta::util::unavailable_error(
        "no live workers to run the SELECT on")));
    return;
  }
  const std::uint64_t id = next_id_++;
  SelectState& state = selects_[id];
  state.total = static_cast<int>(targets.size());
  state.waiting.assign(static_cast<std::size_t>(options_.num_shards), false);
  for (int i : live) state.waiting[static_cast<std::size_t>(i)] = true;
  state.partials.resize(static_cast<std::size_t>(options_.num_shards));
  // The fragments share the statement text; each worker plans it once and
  // keeps the plan for the text's next SELECT. The czar keeps only the
  // merge plan.
  state.plan = make_agg_plan(stmt);
  state.deadline = loop_->now() + core::kSelectDeadline;
  state.done = std::move(done);

  for (int i : live) {
    send_register(i, make_spec("", sql, /*once=*/true, i, id),
                  [this, id, i](Result<net::Message> reply) {
                    // An ack: the rows follow on the result stream. A
                    // refusal settles the target now; so does a call that
                    // gave up, if the shard's mark-down has not already.
                    if (reply.is_ok() && reply.value().kind == kFragmentAck) {
                      return;
                    }
                    auto it = selects_.find(id);
                    if (it != selects_.end() && it->second.error.empty() &&
                        reply.is_ok() &&
                        reply.value().kind == kFragmentError) {
                      it->second.error = reply.value().field("error");
                    }
                    settle_select(id, i, nullptr);
                  });
  }
}

void Czar::settle_select(std::uint64_t id, int shard,
                         std::vector<query::TimestampedRow>* rows) {
  auto it = selects_.find(id);
  if (it == selects_.end()) return;
  SelectState& state = it->second;
  std::vector<bool>::reference waiting =
      state.waiting[static_cast<std::size_t>(shard)];
  if (!waiting) return;
  waiting = false;
  if (rows != nullptr) {
    state.partials[static_cast<std::size_t>(shard)] = std::move(*rows);
    ++state.answered;
  }
  if (std::find(state.waiting.begin(), state.waiting.end(), true) !=
      state.waiting.end()) {
    return;
  }
  // Settled: out of the table before `done` runs (it may issue statements).
  SelectState settled = std::move(state);
  selects_.erase(it);
  if (!settled.error.empty()) {
    settled.done(Result<ExecResult>(
        aorta::util::invalid_argument_error(settled.error)));
    return;
  }
  // Partial results are never silent: a SELECT some target failed to
  // answer (down at dispatch or since, refused, or past the deadline) is
  // marked as partial — and, when the select list aggregates, rejected
  // outright: a sum or count over a subset of the shards is not a smaller
  // answer, it is a wrong one.
  if (settled.answered < settled.total) {
    ++stats_.partial_selects;
    if (settled.plan) {
      settled.done(Result<ExecResult>(aorta::util::unavailable_error(
          aorta::util::str_format(
              "partial aggregate: only %d of %d shard(s) answered; an "
              "aggregate over a subset would be wrong, not smaller",
              settled.answered, settled.total))));
      return;
    }
  }
  ExecResult result;
  result.shards_answered = settled.answered;
  result.shards_total = settled.total;
  result.rows = merge_select(settled.plan, settled.partials);
  result.message = aorta::util::str_format(
      "%zu row(s)%s", result.rows.size(),
      settled.answered < settled.total ? " [partial]" : "");
  std::uint64_t merged = 0;
  for (const auto& p : settled.partials) merged += p.size();
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kMerge, "czar:merge_select",
                      loop_->now(),
                      aorta::util::str_format(
                          "%llu partial(s) -> %zu row(s)",
                          static_cast<unsigned long long>(merged),
                          result.rows.size()));
  settled.done(std::move(result));
}

// ---- worker stream consumption --------------------------------------------

void Czar::on_message(const net::Message& msg) {
  if (rpc_.on_reply(msg)) return;
  if (msg.kind != kFragmentResults && msg.kind != kShardHeartbeat) return;
  int shard = static_cast<int>(msg.field_int("shard", -1));
  if (shard < 0 || shard >= options_.num_shards) return;
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  s.last_msg = loop_->now();
  if (!s.live) {
    // First sign of life after a silence: recover under a new generation.
    // This message belongs to the superseded stream — drop it.
    s.live = true;
    merger_->set_live(shard, true);
    recover_shard(shard);
    ++stats_.stale_gen_msgs;
    return;
  }
  std::uint64_t gen = static_cast<std::uint64_t>(msg.field_int("gen"));
  std::uint64_t seq = static_cast<std::uint64_t>(msg.field_int("seq"));
  if (gen != s.gen) {
    ++stats_.stale_gen_msgs;
    return;
  }
  if (seq < s.next_seq) {
    // Already consumed: a chaos-duplicated copy or a NACK retransmission
    // that crossed paths with the original.
    ++stats_.dup_msgs_dropped;
    return;
  }
  if (seq != s.next_seq) {
    if (s.ooo.count(seq) > 0) {
      ++stats_.dup_msgs_dropped;
      return;
    }
    s.ooo.emplace(seq, msg);
    ++stats_.ooo_buffered;
    maybe_nack(shard);
    return;
  }
  bool saw_heartbeat = msg.kind == kShardHeartbeat;
  consume(shard, msg);
  ++s.next_seq;
  for (auto it = s.ooo.find(s.next_seq); it != s.ooo.end();
       it = s.ooo.find(s.next_seq)) {
    saw_heartbeat |= it->second.kind == kShardHeartbeat;
    consume(shard, it->second);
    s.ooo.erase(it);
    ++s.next_seq;
  }
  // Heartbeat instants double as ack points: tell the worker everything
  // below next_seq is consumed so it can trim its replay buffer. (Acking
  // every message would double backplane traffic for no extra safety.)
  if (saw_heartbeat) send_ack(shard);
}

void Czar::send_ack(int shard) {
  const ShardState& s = shards_[static_cast<std::size_t>(shard)];
  net::Message ack;
  ack.src = kCzarNode;
  ack.dst = worker_node(shard);
  ack.kind = kShardAck;
  ack.set_int("gen", static_cast<std::int64_t>(s.gen));
  ack.set_int("cum", static_cast<std::int64_t>(s.next_seq));
  ++stats_.acks_sent;
  network_->send(std::move(ack));
}

void Czar::maybe_nack(int shard) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.ooo.empty()) return;
  const std::uint64_t from = s.next_seq;
  if (s.last_nack_from == from &&
      loop_->now() - s.last_nack_at < kNackInterval) {
    return;  // this gap was already NACKed moments ago
  }
  s.last_nack_from = from;
  s.last_nack_at = loop_->now();
  net::Message nack;
  nack.src = kCzarNode;
  nack.dst = worker_node(shard);
  nack.kind = kShardNack;
  nack.set_int("gen", static_cast<std::int64_t>(s.gen));
  nack.set_int("from", static_cast<std::int64_t>(from));
  // Everything past the highest buffered seq may still be in flight;
  // request only the known hole [from, highest).
  nack.set_int("to", static_cast<std::int64_t>(s.ooo.rbegin()->first));
  ++stats_.nacks_sent;
  network_->send(std::move(nack));
  // A lost NACK or replay must not wait for the worker's next message,
  // which may be a second away now that a flush is one message: ask
  // again after kNackInterval while the gap stays open.
  auto alive = alive_;
  const std::uint64_t gen = s.gen;
  loop_->schedule(kNackInterval, [this, alive, shard, gen]() {
    if (*alive && shards_[static_cast<std::size_t>(shard)].gen == gen) {
      maybe_nack(shard);
    }
  });
}

void Czar::consume(int shard, const net::Message& msg) {
  if (msg.kind == kShardHeartbeat) {
    ++stats_.heartbeats_received;
    std::size_t before = merger_->buffered();
    merger_->watermark(shard,
                       TimePoint::from_micros(msg.field_int("watermark_us")));
    flush_agg_windows();
    std::size_t after = merger_->buffered();
    if (after != before) {
      AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kMerge, "czar:release",
                          loop_->now(),
                          aorta::util::str_format("%zu row(s)",
                                                  before - after));
    }
    return;
  }
  consume_flush(shard, msg);
}

void Czar::consume_flush(int shard, const net::Message& msg) {
  auto field = msg.fields.find("flush");
  Flush flush;
  if (field == msg.fields.end() || !decode_flush(field->second, &flush)) {
    return;
  }
  // Row groups in the order the worker produced them. A dropped AQ's group
  // is stale; the rest of the message still delivers.
  auto next = flush.rows.begin();
  for (RowGroup& g : flush.groups) {
    const auto rows = std::span(next, g.rows);
    next += static_cast<std::ptrdiff_t>(g.rows);
    auto it = aqs_.find(g.id);
    if (it == aqs_.end()) {
      consume_select_group(shard, g, rows);
      continue;
    }
    AqState& aq = it->second;
    std::vector<bool>::reference announced =
        aq.announced[static_cast<std::size_t>(shard)];
    if (!g.labels.empty()) {
      if (aq.labels.empty()) aq.labels = std::move(g.labels);
      announced = true;
    }
    // Schema-once rows: an id-only group needs this shard's announcement,
    // and every row must fit the announced labels.
    const std::size_t width = aq.labels.size();
    if (!announced || std::any_of(rows.begin(), rows.end(),
                                  [width](const query::TimestampedRow& r) {
                                    return r.row.size() != width;
                                  })) {
      ++stats_.rejected_groups;
      continue;
    }
    stats_.rows_received += rows.size();
    for (query::TimestampedRow& row : rows) {
      for (std::size_t j = 0; j < width; ++j) row.row[j].first = aq.labels[j];
      merger_->add(shard, g.id, std::move(row));
    }
  }
  for (const OutcomeRecord& o : flush.outcomes) {
    ++stats_.outcomes_received;
    if (outcome_sink_) outcome_sink_(o.query, o.at, o.detail);
  }
}

void Czar::consume_select_group(int shard, const RowGroup& g,
                                std::span<query::TimestampedRow> rows) {
  auto it = selects_.find(g.id);
  if (it == selects_.end() ||
      !it->second.waiting[static_cast<std::size_t>(shard)]) {
    // A dropped AQ's rows, or a SELECT target already settled (partial,
    // at a mark-down or its deadline): stale.
    stats_.stale_query_rows += rows.size();
    return;
  }
  // A SELECT's one group carries its labels (none when it has no rows).
  const std::size_t width = g.labels.size();
  std::vector<query::TimestampedRow> partial;
  partial.reserve(rows.size());
  for (query::TimestampedRow& row : rows) {
    if (row.row.size() != width) {
      ++stats_.rejected_groups;
      settle_select(g.id, shard, nullptr);
      return;
    }
    for (std::size_t j = 0; j < width; ++j) row.row[j].first = g.labels[j];
    partial.push_back(std::move(row));
  }
  settle_select(g.id, shard, &partial);
}

void Czar::on_row_released(std::uint64_t id, query::TimestampedRow& row) {
  auto it = aqs_.find(id);
  if (it == aqs_.end()) return;
  AqState& aq = it->second;
  if (aq.agg.has_value()) {
    // Per-shard window partial: fold into the (instant, group key) bucket.
    // All shards' partials for an instant release in the same frontier
    // advance (the watermark promise orders every row before its shard's
    // heartbeat), so flush_agg_windows() — run after that advance — only
    // ever sees complete windows.
    const AggPlan& plan = *aq.agg;
    std::string group_key;
    for (std::size_t j : plan.group_cols) {
      if (j < row.row.size()) {
        query::append_group_key(row.row[j].second, &group_key);
      }
    }
    auto key = std::make_pair(row.at.to_micros(), std::move(group_key));
    auto& buckets = agg_pending_[id];
    auto bit = buckets.find(key);
    if (bit == buckets.end()) {
      buckets.emplace(std::move(key), std::move(row));
      return;
    }
    query::TimestampedRow& acc = bit->second;
    acc.degraded |= row.degraded;
    if (row.row.size() != plan.ops.size() ||
        acc.row.size() != plan.ops.size()) {
      return;  // malformed partial
    }
    plan.fold(acc.row, row.row);
    return;
  }
  if (aq.options.on_row) aq.options.on_row(aq.name, std::move(row));
}

void Czar::flush_agg_windows() {
  if (agg_pending_.empty()) return;
  auto pending = std::move(agg_pending_);
  agg_pending_.clear();
  // Deterministic delivery order: query name, then (instant, group key) —
  // the bucket map's own order.
  std::vector<std::pair<std::string_view, std::uint64_t>> order;
  for (const auto& [id, buckets] : pending) {
    auto it = aqs_.find(id);
    if (it != aqs_.end()) order.emplace_back(it->second.name, id);
  }
  std::sort(order.begin(), order.end());
  for (const auto& entry : order) {
    const std::uint64_t id = entry.second;
    for (auto& [key, stamped] : pending[id]) {
      // Re-resolve per row: an on_row hook may drop AQs.
      auto it = aqs_.find(id);
      if (it == aqs_.end()) break;
      const AggPlan& plan = *it->second.agg;
      if (stamped.row.size() != plan.ops.size()) continue;  // malformed
      plan.finalize(stamped.row);
      if (it->second.options.on_row) {
        it->second.options.on_row(it->second.name, std::move(stamped));
      }
    }
  }
}

// ---- supervision ----------------------------------------------------------

void Czar::mark_down(int shard) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (!s.live) return;
  s.live = false;
  s.ooo.clear();
  ++stats_.workers_marked_down;
  merger_->set_live(shard, false);
  flush_agg_windows();
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kFragment,
                      "czar:down:" + worker_node(shard), loop_->now(),
                      "unresponsive");
  // Its SELECT targets will never answer on this stream.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, state] : selects_) ids.push_back(id);
  for (std::uint64_t id : ids) settle_select(id, shard, nullptr);
}

void Czar::check_liveness() {
  const Duration silence_bound =
      kHeartbeatInterval * static_cast<double>(kMissThreshold);
  for (int i = 0; i < options_.num_shards; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (!s.live) continue;
    if (loop_->now() - s.last_msg > silence_bound) mark_down(i);
  }
  // SELECTs past their deadline: ids rise with deadlines, and a SELECT
  // leaves the table as its last target settles.
  while (!selects_.empty() &&
         selects_.begin()->second.deadline <= loop_->now()) {
    const std::uint64_t id = selects_.begin()->first;
    for (int i = 0; i < options_.num_shards; ++i) settle_select(id, i, nullptr);
  }
  auto alive = alive_;
  loop_->schedule(kHeartbeatInterval, [this, alive]() {
    if (*alive) check_liveness();
  });
}

void Czar::recover_shard(int shard) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  ++s.gen;
  s.next_seq = 0;
  s.ooo.clear();
  s.last_nack_from = ~std::uint64_t{0};
  ++stats_.reregistrations;
  // Fresh generation, fresh dispatch state: forget the peer's retry budget
  // so the handshake below can retry.
  reliable_call_.reset_peer(worker_node(shard));
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kFragment,
                      "czar:recover:" + worker_node(shard), loop_->now(),
                      "gen " + std::to_string(s.gen));
  // Fresh-slate handshake: the worker drops every fragment and resets its
  // outbound stream, then each live AQ that targets it is re-registered.
  send_register(shard, make_spec("", "", /*once=*/false, shard),
                [](Result<net::Message>) {});
  for (const auto& [name, id] : ids_) {
    AqState& aq = aqs_.at(id);
    if (std::find(aq.targets.begin(), aq.targets.end(), shard) ==
        aq.targets.end()) {
      ++stats_.fragments_pruned;
      continue;
    }
    aq.announced[static_cast<std::size_t>(shard)] = false;
    send_register(shard, make_spec(name, aq.sql, /*once=*/false, shard, id),
                  [](Result<net::Message>) {});
  }
}

}  // namespace aorta::shard
