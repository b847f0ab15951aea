#include "shard/worker.h"

#include <algorithm>
#include <optional>

#include "util/logging.h"

namespace aorta::shard {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;

namespace {

// avg() is not mergeable from per-shard averages, but it is from
// (sum, count) partials: rewrite each avg(e) into sum(e) in place plus a
// count(e) appended past the select list. Then append each GROUP BY
// column the select list leaves out (hidden_group_columns), so the czar
// can tell the groups' partials apart. The WHERE, GROUP BY and WINDOW
// clauses are preserved. One-shot SELECT partials merge once every target
// settled; continuous aggregate fragments per window instant
// and group behind the czar's merge frontier (Czar::AggPlan mirrors this
// column layout). Nullopt when there is nothing to rewrite.
std::optional<query::SelectStmt> rewrite_to_partials(
    const query::SelectStmt& stmt) {
  auto is_avg = [](const query::ExprPtr& item) {
    return query::agg_op(*item) == query::AggOp::kAvg;
  };
  const std::vector<const query::Expr*> hidden = hidden_group_columns(stmt);
  if (hidden.empty() && std::none_of(stmt.select_list.begin(),
                                     stmt.select_list.end(), is_avg)) {
    return std::nullopt;
  }
  query::SelectStmt out;
  out.from = stmt.from;
  if (stmt.where != nullptr) out.where = stmt.where->clone();
  for (const auto& g : stmt.group_by) out.group_by.push_back(g->clone());
  out.window_s = stmt.window_s;
  out.every_s = stmt.every_s;
  std::vector<query::ExprPtr> counts;
  for (const auto& item : stmt.select_list) {
    if (is_avg(item)) {
      std::vector<query::ExprPtr> sum_args;
      std::vector<query::ExprPtr> count_args;
      for (const auto& a : item->args) {
        sum_args.push_back(a->clone());
        count_args.push_back(a->clone());
      }
      out.select_list.push_back(
          query::Expr::make_func("sum", std::move(sum_args)));
      counts.push_back(query::Expr::make_func("count", std::move(count_args)));
    } else {
      out.select_list.push_back(item->clone());
    }
  }
  for (auto& c : counts) out.select_list.push_back(std::move(c));
  for (const query::Expr* g : hidden) out.select_list.push_back(g->clone());
  return out;
}

// A request's idempotency key (gen, idem_seq); nullopt when unkeyed.
std::optional<std::pair<std::uint64_t, std::uint64_t>> idem_key(
    const net::Message& msg) {
  if (msg.fields.count(kIdemSeqField) == 0) return std::nullopt;
  return std::make_pair(
      static_cast<std::uint64_t>(msg.field_int("gen")),
      static_cast<std::uint64_t>(msg.field_int(kIdemSeqField)));
}

}  // namespace

Worker::Worker(core::Aorta* host, Options options)
    : options_(std::move(options)),
      node_id_(worker_node(options_.index)),
      engine_(*host, options_.index, node_id_),
      replay_limit_(host->config().reliable_backplane ? kReplayLimit : 0) {
  // The engine attach used the default LAN link; workers sit on the
  // zero-loss backplane instead (czar traffic must not be droppable).
  (void)engine_.network().set_link(node_id_, backplane_link());
  // Action outcomes ride the flush of their instant to the czar (where
  // the service layer routes them to the owning session's mailbox).
  engine_.executor().set_outcome_sink(
      [this](const std::string& query, aorta::util::TimePoint at,
             const std::string& detail) { on_outcome(query, at, detail); });
  engine_.comm().engine().set_push_handler(
      [this](const net::Message& msg) { on_push(msg); });

  // Protocol metrics, beside the slice's schema under "shard.<i>.".
  obs::MetricsRegistry::Scoped& m = engine_.metrics();
  m.enroll_counter("fragments.registered", &stats_.fragments_registered);
  m.enroll_counter("fragments.dropped", &stats_.fragments_dropped);
  m.enroll_gauge("fragments.active", [this]() {
    return static_cast<std::int64_t>(fragments_.size());
  });
  m.enroll_counter("selects_served", &stats_.selects_served);
  m.enroll_counter("plans.reused", &stats_.plans_reused);
  m.enroll_counter("plans.evicted", &stats_.plans_evicted);
  m.enroll_counter("rows_sent", &stats_.rows_sent);
  m.enroll_counter("results_msgs", &stats_.results_msgs);
  m.enroll_counter("heartbeats", &stats_.heartbeats_sent);
  m.enroll_counter("reliable.dup_requests", &stats_.dup_requests);
  m.enroll_counter("reliable.stale_gen_requests", &stats_.stale_gen_requests);
  m.enroll_counter("reliable.acks_received", &stats_.acks_received);
  m.enroll_counter("reliable.nacks_received", &stats_.nacks_received);
  m.enroll_counter("reliable.replay_sent", &stats_.replay_sent);
  m.enroll_counter("reliable.replay_overflow", &stats_.replay_overflow);
  m.enroll_gauge("reliable.replay_depth", [this]() {
    return static_cast<std::int64_t>(replay_.size());
  });
  m.enroll_gauge("reliable.replay_hwm", [this]() {
    return static_cast<std::int64_t>(stats_.replay_hwm);
  });

  auto alive = alive_;
  engine_.loop().schedule(kHeartbeatInterval, [this, alive]() {
    if (*alive) send_heartbeat();
  });
}

Worker::~Worker() {
  engine_.comm().engine().set_push_handler({});
  engine_.executor().set_outcome_sink({});
  // The protocol keys point at members destroyed before the slice.
  engine_.metrics().unenroll_all();
  *alive_ = false;
}

void Worker::on_push(const net::Message& msg) {
  if (msg.kind == kShardAck) {
    handle_ack(msg);
    return;
  }
  if (msg.kind == kShardNack) {
    handle_nack(msg);
    return;
  }
  if (msg.kind != kFragmentRegister && msg.kind != kFragmentDrop) {
    // A device-initiated push; no current protocol uses them.
    return;
  }
  if (!begin_idem(msg)) return;  // duplicate, fully handled
  if (msg.kind == kFragmentRegister) {
    handle_register(msg);
  } else {
    handle_drop(msg);
  }
}

bool Worker::begin_idem(const net::Message& msg) {
  const auto key = idem_key(msg);
  if (!key) return true;  // unkeyed request: just process
  auto it = idem_.find(*key);
  if (it == idem_.end()) return true;
  ++stats_.dup_requests;
  AORTA_TRACE_INSTANT(&engine_.tracer(), obs::SpanCat::kFragment,
                      node_id_ + ":dup_request", engine_.loop().now(),
                      msg.kind);
  // Every request is answered in the event that receives it, so a
  // duplicate always finds the reply: replay it under its own request_id.
  net::Message reply = it->second;
  reply.request_id = msg.request_id;
  reply.dst = msg.src;
  engine_.network().send(std::move(reply));
  return false;
}

void Worker::send_reply(const net::Message& request, net::Message reply) {
  if (const auto key = idem_key(request)) {
    idem_.emplace(*key, reply);
    idem_fifo_.push_back(*key);
    if (idem_fifo_.size() > kIdemWindow) {
      idem_.erase(idem_fifo_.front());
      idem_fifo_.pop_front();
    }
  }
  engine_.network().send(std::move(reply));
}

void Worker::handle_ack(const net::Message& msg) {
  if (static_cast<std::uint64_t>(msg.field_int("gen")) != gen_) return;
  ++stats_.acks_received;
  const auto cum = static_cast<std::uint64_t>(msg.field_int("cum"));
  replay_.erase(replay_.begin(), replay_.lower_bound(cum));
}

void Worker::handle_nack(const net::Message& msg) {
  if (static_cast<std::uint64_t>(msg.field_int("gen")) != gen_) return;
  ++stats_.nacks_received;
  const auto from = static_cast<std::uint64_t>(msg.field_int("from"));
  const auto to = static_cast<std::uint64_t>(msg.field_int("to"));
  AORTA_TRACE_INSTANT(&engine_.tracer(), obs::SpanCat::kFragment,
                      node_id_ + ":replay", engine_.loop().now(),
                      "[" + std::to_string(from) + ", " + std::to_string(to) +
                          ")");
  // Retransmit the stored messages byte-for-byte (same gen, same seq);
  // the czar drops whatever it meanwhile consumed or buffered.
  for (auto it = replay_.lower_bound(from);
       it != replay_.end() && it->first < to; ++it) {
    net::Message copy = it->second;
    ++stats_.replay_sent;
    engine_.network().send(std::move(copy));
  }
}

void Worker::reply_ack(const net::Message& request) {
  net::Message reply = net::make_reply(request, kFragmentAck, 64);
  reply.set_int("gen", static_cast<std::int64_t>(gen_));
  send_reply(request, std::move(reply));
}

void Worker::reply_error(const net::Message& request,
                         const std::string& message) {
  net::Message reply = net::make_reply(request, kFragmentError, 64);
  reply.set("error", message);
  send_reply(request, std::move(reply));
}

void Worker::adopt_gen(std::uint64_t gen) {
  gen_ = gen;
  seq_ = 0;
  for (const auto& [name, fragment] : fragments_) {
    (void)engine_.executor().drop_aq(name);
  }
  fragments_.clear();
  (void)pending_.finish();  // the superseded stream's rows and outcomes
  // The superseded stream's unacked messages die with it; the idempotency
  // window survives (its keys embed the generation).
  replay_.clear();
}

void Worker::reply_stale(const net::Message& request) {
  ++stats_.stale_gen_requests;
  net::Message reply = net::make_reply(request, kFragmentStale, 64);
  reply.set_int("gen", static_cast<std::int64_t>(gen_));
  send_reply(request, std::move(reply));
}

void Worker::handle_register(const net::Message& msg) {
  FragmentSpec spec = fragment_from_fields(msg);
  if (spec.gen < gen_) {
    // A delayed retry or chaos duplicate from before a generation bump:
    // adopting it would roll the stream back. Refuse, identify ourselves.
    reply_stale(msg);
    return;
  }
  if (spec.gen > gen_) adopt_gen(spec.gen);
  if (spec.sql.empty() && !spec.once) {
    // Generation-sync control fragment: the czar's recovery handshake when
    // it has nothing (or nothing yet) to re-register on this shard.
    reply_ack(msg);
    return;
  }
  if (spec.once) {
    run_once_select(msg, spec);
    return;
  }
  auto stmt = query::parse(spec.sql);
  if (!stmt.is_ok()) {
    ++stats_.bad_requests;
    reply_error(msg, stmt.status().to_string());
    return;
  }
  trace_register(spec);
  if (stmt.value().kind != query::Statement::Kind::kCreateAq) {
    ++stats_.bad_requests;
    reply_error(msg, "fragment must be a CREATE AQ statement");
    return;
  }
  if (auto it = fragments_.find(spec.name); it != fragments_.end()) {
    (void)engine_.executor().drop_aq(spec.name);  // re-register replaces
    fragments_.erase(it);
  }
  Fragment* fragment = &fragments_[spec.name];
  fragment->id = spec.id;
  query::ContinuousQueryExecutor::AqHooks hooks;
  hooks.owner = "czar";
  auto alive = alive_;
  hooks.on_row = [this, alive, fragment](const std::string&,
                                         const query::RowView& row) {
    if (*alive) on_aq_row(*fragment, row);
  };
  // Continuous aggregates ship per-shard window partials; avg() fragments
  // are rewritten to (sum, count) partials the czar finalizes per window
  // instant and group (the one-shot path's rewrite, behind the merge
  // frontier).
  const query::SelectStmt& select = stmt.value().create_aq.select;
  auto rewritten = rewrite_to_partials(select);
  Status registered = engine_.executor().register_aq(
      spec.name, stmt.value().create_aq.epoch_s,
      rewritten ? *rewritten : select, std::move(hooks));
  if (!registered.is_ok()) {
    fragments_.erase(spec.name);
    ++stats_.bad_requests;
    reply_error(msg, registered.to_string());
    return;
  }
  ++stats_.fragments_registered;
  reply_ack(msg);
}

void Worker::handle_drop(const net::Message& msg) {
  if (static_cast<std::uint64_t>(msg.field_int("gen")) < gen_) {
    // A delayed drop from before a generation bump: the same name may
    // already be registered again under the new generation.
    reply_stale(msg);
    return;
  }
  std::string name = msg.field("name");
  const auto id = static_cast<std::uint64_t>(msg.field_int("id"));
  if (auto it = fragments_.find(name);
      it != fragments_.end() && it->second.id == id) {
    (void)engine_.executor().drop_aq(name);  // the row hook goes first
    fragments_.erase(it);
    ++stats_.fragments_dropped;
  }
  AORTA_TRACE_INSTANT(&engine_.tracer(), obs::SpanCat::kFragment,
                      node_id_ + ":drop:" + name, engine_.loop().now(), "");
  send_reply(msg, net::make_reply(msg, kFragmentAck, 64));
}

void Worker::trace_register(const FragmentSpec& spec) {
  AORTA_TRACE_INSTANT(&engine_.tracer(), obs::SpanCat::kFragment,
                      node_id_ + ":register:" + spec.name, engine_.loop().now(),
                      spec.once ? "once" : "gen " + std::to_string(spec.gen));
}

std::shared_ptr<const query::CompiledQuery> Worker::once_plan(
    const net::Message& msg, const FragmentSpec& spec) {
  // Every catalog or device-type registration moves the version: a plan
  // compiled before it may no longer be what compile() would make now.
  const std::uint64_t version =
      engine_.catalog().version() + engine_.registry().types_version();
  if (version != plans_version_) {
    plans_.clear();
    plan_fifo_.clear();
    plans_version_ = version;
  }
  if (auto it = plans_.find(spec.sql); it != plans_.end()) {
    ++stats_.plans_reused;
    trace_register(spec);
    return it->second;
  }
  auto stmt = query::parse(spec.sql);
  if (!stmt.is_ok()) {
    ++stats_.bad_requests;
    reply_error(msg, stmt.status().to_string());
    return nullptr;
  }
  trace_register(spec);
  if (stmt.value().kind != query::Statement::Kind::kSelect) {
    ++stats_.bad_requests;
    reply_error(msg, "once fragment must be a SELECT");
    return nullptr;
  }
  // avg() cannot be merged from per-shard averages, but it *is* mergeable
  // from (sum, count) partials (see rewrite_to_partials). The czar
  // finalizes sum/count and drops the helper columns when it merges.
  const query::SelectStmt& select = stmt.value().select;
  auto rewritten = rewrite_to_partials(select);
  auto plan = engine_.executor().plan_select(rewritten ? *rewritten : select);
  if (!plan.is_ok()) {
    reply_error(msg, plan.status().to_string());
    return nullptr;
  }
  plan_fifo_.push_back(spec.sql);
  if (plan_fifo_.size() > kPlanLimit) {
    plans_.erase(plan_fifo_.front());
    plan_fifo_.pop_front();
    ++stats_.plans_evicted;
  }
  return plans_.emplace(spec.sql, std::move(plan).value()).first->second;
}

void Worker::run_once_select(const net::Message& msg,
                             const FragmentSpec& spec) {
  std::shared_ptr<const query::CompiledQuery> plan = once_plan(msg, spec);
  if (plan == nullptr) return;
  // Accepted: the ack goes now, whatever the run takes; the rows follow
  // on the result stream.
  reply_ack(msg);
  auto alive = alive_;
  // Completion fires once acquisition finishes in simulated time; the run
  // holds the plan until then, evicted or not. A generation bump in
  // between discards the rows with the superseded stream.
  engine_.executor().run_plan(
      std::move(plan), [this, alive, id = spec.id, gen = gen_](
                           Result<std::vector<query::Row>> outcome) {
        // run_plan reports no errors; were one to fail, the czar settles
        // the target at its SELECT deadline.
        if (!*alive || gen != gen_ || !outcome.is_ok()) return;
        std::vector<query::Row>& rows = outcome.value();
        std::vector<std::string> labels;
        if (!rows.empty()) {
          for (const auto& field : rows.front()) labels.push_back(field.first);
        }
        const std::size_t group = pending_.add_group(id, labels);
        std::vector<device::Value> values;
        for (query::Row& row : rows) {
          values.clear();
          for (auto& field : row) values.push_back(std::move(field.second));
          pending_.add_row(group, engine_.loop().now(), false, values);
        }
        ++stats_.selects_served;
        schedule_flush();
      });
}

void Worker::on_aq_row(Fragment& fragment, const query::RowView& row) {
  // Group by fragment, groups in first-appearance order (deterministic).
  if (fragment.group_flush != flushes_) {
    fragment.group_flush = flushes_;
    // Labels cross once per (shard, generation): with the fragment's first
    // group. Every row of a fragment has the same labels.
    fragment.group = pending_.add_group(
        fragment.id, fragment.announced ? std::span<const std::string>()
                                        : row.labels);
    fragment.announced = true;
  }
  pending_.add_row(fragment.group, row.at, row.degraded, row.values);
  schedule_flush();
}

void Worker::on_outcome(const std::string& query, aorta::util::TimePoint at,
                        const std::string& detail) {
  pending_.add_outcome(query, at, detail);
  schedule_flush();
}

void Worker::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  auto alive = alive_;
  // Zero-delay event: everything produced at this instant ships in one
  // message, and ships before any later heartbeat can advance the
  // watermark past it (see shard/fragment.h on ordering).
  engine_.loop().schedule(Duration::zero(), [this, alive]() {
    if (*alive) flush();
  });
}

void Worker::flush() {
  flush_scheduled_ = false;
  ++flushes_;
  if (pending_.empty()) return;  // a generation bump discarded them
  stats_.rows_sent += pending_.rows();
  std::string payload = pending_.finish();
  net::Message msg;
  msg.kind = kFragmentResults;
  msg.payload_bytes = 64 + payload.size();
  msg.fields.emplace("flush", std::move(payload));
  ++stats_.results_msgs;
  send_sequenced(std::move(msg));
}

void Worker::send_heartbeat() {
  net::Message msg;
  msg.kind = kShardHeartbeat;
  msg.set_int("watermark_us", engine_.loop().now().to_micros());
  ++stats_.heartbeats_sent;
  send_sequenced(std::move(msg));
  auto alive = alive_;
  engine_.loop().schedule(kHeartbeatInterval, [this, alive]() {
    if (*alive) send_heartbeat();
  });
}

void Worker::send_sequenced(net::Message msg) {
  msg.src = node_id_;
  msg.dst = kCzarNode;
  msg.set_int("shard", options_.index);
  msg.set_int("gen", static_cast<std::int64_t>(gen_));
  const std::uint64_t seq = seq_++;
  msg.set_int("seq", static_cast<std::int64_t>(seq));
  // Retain a verbatim copy until a cumulative ack covers it. The bound
  // protects memory if the czar goes silent; overflow drops the oldest
  // (supervision will eventually bump the generation anyway). With zero
  // retention (the ablation) every message is evicted at once.
  replay_.emplace(seq, msg);
  if (replay_.size() > replay_limit_) {
    replay_.erase(replay_.begin());
    ++stats_.replay_overflow;
  }
  if (replay_.size() > stats_.replay_hwm) stats_.replay_hwm = replay_.size();
  engine_.network().send(std::move(msg));
}

}  // namespace aorta::shard
