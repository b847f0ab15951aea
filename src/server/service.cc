#include "server/service.h"

#include "query/parser.h"
#include "util/json_writer.h"

namespace aorta::server {

using aorta::util::Result;
using aorta::util::Status;

QueryService::QueryService(core::Aorta* system, ServiceConfig config)
    : system_(system),
      config_(std::move(config)),
      metrics_(&system->metrics()),
      tracer_(&system->tracer()),
      admission_(config_.admission) {
  for (const auto& [tenant, weight] : config_.tenant_weights) {
    admission_.set_tenant_weight(tenant, weight);
  }

  metrics_->enroll_gauge("sessions.total", [this]() {
    return static_cast<std::int64_t>(sessions_.size());
  });
  metrics_->enroll_gauge("sessions.active", [this]() {
    return static_cast<std::int64_t>(active_sessions());
  });
  const AdmissionStats& as = admission_.stats();
  metrics_->enroll_counter("admission.submitted", &as.submitted);
  metrics_->enroll_counter("admission.admitted", &as.admitted);
  metrics_->enroll_counter("admission.rejected", &as.rejected);
  metrics_->enroll_counter("admission.shed", &as.shed);
  metrics_->enroll_counter("admission.dispatched", &as.dispatched);
  metrics_->enroll_gauge("admission.queued", [this]() {
    return static_cast<std::int64_t>(admission_.queued());
  });

  if (config_.num_shards > 0) {
    plane_ = std::make_unique<shard::Plane>(
        system_, shard::Plane::Options{.num_shards = config_.num_shards});
  }
  // Route action outcomes of session-owned queries to their mailboxes:
  // relayed from the workers through the czar when sharded, straight from
  // the executor otherwise.
  query::OutcomeSink route_outcome =
      [this](const std::string& query, aorta::util::TimePoint at,
             const std::string& detail) { deliver_outcome(query, at, detail); };
  if (plane_ != nullptr) {
    plane_->czar().set_outcome_sink(std::move(route_outcome));
  } else {
    system_->executor().set_outcome_sink(std::move(route_outcome));
  }
  auto alive = alive_;
  system_->loop().schedule(config_.dispatch_interval, [this, alive]() {
    if (*alive) on_tick();
  });
}

void QueryService::deliver_outcome(const std::string& query,
                                   aorta::util::TimePoint at,
                                   const std::string& detail) {
  auto owner = query_owner_.find(query);
  if (owner == query_owner_.end()) return;
  auto it = sessions_.find(owner->second);
  if (it == sessions_.end() || it->second->state() == SessionState::kClosed) {
    return;
  }
  Delivery d;
  d.kind = Delivery::Kind::kOutcome;
  d.at = at;
  d.query = query;
  d.message = detail;
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kDelivery, "outcome:" + query,
                      at, detail);
  it->second->deliver(std::move(d));
  ++tenant_entry(it->second->tenant()).outcomes_delivered;
}

void QueryService::exec_statement(
    query::Statement stmt, const std::string& sql, core::ExecOptions options,
    std::function<void(Result<core::ExecResult>)> done) {
  if (plane_ != nullptr) {
    plane_->exec_async(std::move(stmt), sql, std::move(options),
                       std::move(done));
  } else {
    system_->exec_async(std::move(stmt), sql, std::move(options),
                        std::move(done));
  }
}

void QueryService::drop_query(const std::string& prefixed_name) {
  if (plane_ != nullptr) {
    (void)plane_->czar().drop_aq(prefixed_name);
  } else {
    (void)system_->executor().drop_aq(prefixed_name);
  }
}

QueryService::~QueryService() {
  if (plane_ != nullptr) plane_->czar().set_outcome_sink({});
  system_->executor().set_outcome_sink({});
  // The service dies before the system: withdraw its registry sections so
  // a later stats snapshot cannot read freed counters.
  metrics_->unenroll_prefix("sessions.");
  metrics_->unenroll_prefix("admission.");
  metrics_->unenroll_prefix("tenants.");
  // Callbacks still queued on the loop (ticks, select completions, AQ row
  // hooks) share alive_ and become no-ops from here on.
  *alive_ = false;
}

TenantStats& QueryService::tenant_entry(const TenantId& tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    TenantStats& ts = it->second;
    std::string prefix =
        "tenants." + obs::MetricsRegistry::sanitize_component(tenant) + ".";
    metrics_->enroll_counter(prefix + "submitted", &ts.submitted);
    metrics_->enroll_counter(prefix + "admitted", &ts.admitted);
    metrics_->enroll_counter(prefix + "rejected", &ts.rejected);
    metrics_->enroll_counter(prefix + "shed", &ts.shed);
    metrics_->enroll_counter(prefix + "dispatched", &ts.dispatched);
    metrics_->enroll_counter(prefix + "completed", &ts.completed);
    metrics_->enroll_counter(prefix + "partial_results", &ts.partial_results);
    metrics_->enroll_counter(prefix + "errors", &ts.errors);
    metrics_->enroll_counter(prefix + "rows", &ts.rows_delivered);
    metrics_->enroll_counter(prefix + "rows_degraded", &ts.rows_degraded);
    metrics_->enroll_counter(prefix + "outcomes", &ts.outcomes_delivered);
    metrics_->enroll_gauge(prefix + "mailbox_dropped", [this, tenant]() {
      std::int64_t dropped = 0;
      for (const auto& [id, s] : sessions_) {
        if (s->tenant() == tenant) {
          dropped += static_cast<std::int64_t>(s->mailbox_dropped());
        }
      }
      return dropped;
    });
    metrics_->enroll_histogram(prefix + "admission_latency_ms",
                               &ts.admission_latency_ms);
  }
  return it->second;
}

void QueryService::on_tick() {
  for (std::size_t i = 0; i < config_.max_dispatch_per_tick; ++i) {
    auto next = admission_.next(
        [this](const Submission& s) { return eligible(s); });
    if (!next.has_value()) break;
    dispatch(std::move(*next));
  }
  auto alive = alive_;
  system_->loop().schedule(config_.dispatch_interval, [this, alive]() {
    if (*alive) on_tick();
  });
}

SessionId QueryService::connect(const TenantId& tenant) {
  SessionId id = next_session_id_++;
  sessions_.emplace(
      id, std::make_unique<Session>(id, tenant, config_.mailbox_capacity));
  (void)tenant_entry(tenant);  // tenant appears in stats from first contact
  return id;
}

Session* QueryService::session(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const Session* QueryService::session(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::size_t QueryService::active_sessions() const {
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s->state() != SessionState::kClosed) ++n;
  }
  return n;
}

Status QueryService::drain_session(SessionId id) {
  Session* s = session(id);
  if (s == nullptr) return aorta::util::not_found_error("no such session");
  if (s->state() == SessionState::kClosed) {
    return aorta::util::invalid_argument_error("session already closed");
  }
  s->state_ = SessionState::kDraining;
  return Status::ok();
}

Status QueryService::disconnect(SessionId id) {
  Session* s = session(id);
  if (s == nullptr) return aorta::util::not_found_error("no such session");
  if (s->state() == SessionState::kClosed) {
    return aorta::util::invalid_argument_error("session already closed");
  }
  // Drop every continuous query the session registered.
  for (const std::string& name : s->queries_) {
    drop_query(name);
    query_owner_.erase(name);
    TenantRuntime& rt = runtime_[s->tenant()];
    if (rt.aqs > 0) --rt.aqs;
  }
  s->queries_.clear();
  s->state_ = SessionState::kClosed;
  return Status::ok();
}

bool QueryService::eligible(const Submission& submission) const {
  if (submission.kind != query::Statement::Kind::kSelect) return true;
  auto it = runtime_.find(submission.tenant);
  std::uint64_t inflight = it == runtime_.end() ? 0 : it->second.inflight_selects;
  return inflight < config_.admission.max_inflight_selects_per_tenant;
}

Result<std::uint64_t> QueryService::submit(SessionId id,
                                           const std::string& sql) {
  Session* s = session(id);
  if (s == nullptr) {
    return Result<std::uint64_t>(aorta::util::not_found_error(
        "no such session: " + std::to_string(id)));
  }
  if (s->state() != SessionState::kActive) {
    return Result<std::uint64_t>(aorta::util::unavailable_error(
        "session is " + std::string(session_state_name(s->state()))));
  }
  TenantStats& ts = tenant_entry(s->tenant());
  TenantRuntime& rt = runtime_[s->tenant()];
  ++ts.submitted;
  ++s->stats_.submitted;

  // Parse up front, once: the admission queue only holds well-formed
  // statements, quota checks need the statement kind, and dispatch hands
  // the parsed statement to the engine.
  auto stmt = query::parse(sql);
  if (!stmt.is_ok()) {
    ++ts.errors;
    ++s->stats_.errors;
    return Result<std::uint64_t>(stmt.status());
  }

  Submission sub;
  sub.session = id;
  sub.tenant = s->tenant();
  sub.sql = sql;
  sub.statement = std::make_shared<query::Statement>(std::move(stmt).value());
  sub.kind = sub.statement->kind;
  sub.enqueued_at = system_->loop().now();
  sub.seq = next_seq_++;
  const query::Statement::Kind kind = sub.kind;
  if (sub.kind == query::Statement::Kind::kCreateAq) {
    sub.aq_name = sub.statement->create_aq.name;
    // Per-tenant quota on registered AQs, counting queued registrations.
    if (rt.aqs + rt.pending_creates >=
        config_.admission.max_aqs_per_tenant) {
      ++ts.rejected;
      ++s->stats_.rejected;
      return Result<std::uint64_t>(aorta::util::busy_error(
          "tenant AQ quota reached (" +
          std::to_string(config_.admission.max_aqs_per_tenant) + ")"));
    }
  } else if (sub.kind == query::Statement::Kind::kDropAq) {
    sub.aq_name = sub.statement->drop_aq.name;
  }
  sub.statement_id = s->next_statement_id_++;
  std::uint64_t statement_id = sub.statement_id;

  bool queued = admission_.submit(
      std::move(sub), [this](const Submission& shed) {
        // A queued submission was shed to admit a newer one: tell its
        // session, and release any quota it was holding.
        TenantStats& shed_ts = tenant_entry(shed.tenant);
        ++shed_ts.shed;
        if (shed.kind == query::Statement::Kind::kCreateAq) {
          TenantRuntime& shed_rt = runtime_[shed.tenant];
          if (shed_rt.pending_creates > 0) --shed_rt.pending_creates;
        }
        if (Session* victim = session(shed.session)) {
          Delivery d;
          d.kind = Delivery::Kind::kError;
          d.at = system_->loop().now();
          d.statement_id = shed.statement_id;
          d.message = "shed by admission control before dispatch";
          victim->deliver(std::move(d));
        }
      });
  if (!queued) {
    ++ts.rejected;
    ++s->stats_.rejected;
    return Result<std::uint64_t>(aorta::util::busy_error(
        "admission queue full (" +
        std::to_string(config_.admission.queue_capacity) + ")"));
  }
  ++ts.admitted;
  if (kind == query::Statement::Kind::kCreateAq) ++rt.pending_creates;
  return statement_id;
}

void QueryService::dispatch(Submission submission) {
  TenantStats& ts = tenant_entry(submission.tenant);
  TenantRuntime& rt = runtime_[submission.tenant];
  ++ts.dispatched;
  double wait_ms = (system_->loop().now() - submission.enqueued_at).to_millis();
  ts.admission_latency_ms.add(wait_ms);
  admission_latency_ms_.add(wait_ms);
  if (submission.kind == query::Statement::Kind::kCreateAq &&
      rt.pending_creates > 0) {
    --rt.pending_creates;
  }

  Session* s = session(submission.session);
  if (s == nullptr || s->state() == SessionState::kClosed) {
    ++ts.errors;  // dispatched into a void: session left while queued
    return;
  }
  if (submission.kind == query::Statement::Kind::kSelect) {
    ++rt.inflight_selects;
  }

  core::ExecOptions options;
  options.owner = s->name_prefix();
  options.name_prefix = s->name_prefix();
  // Sessions and tenant entries are never erased, so the row hook keeps
  // pointers to its session and its tenant's stats instead of looking
  // either up per row.
  options.on_row = [this, alive = alive_, row_session = s, row_ts = &ts](
                       const std::string& query, query::TimestampedRow row) {
    if (!*alive || row_session->state() == SessionState::kClosed) return;
    Delivery d;
    d.kind = Delivery::Kind::kRow;
    d.at = row.at;
    d.query = query;
    d.rows.push_back(std::move(row.row));
    d.degraded = row.degraded;
    AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kDelivery, "row:" + query,
                        row.at, std::string());
    row_session->deliver(std::move(d));
    ++row_ts->rows_delivered;
    if (row.degraded) ++row_ts->rows_degraded;
  };

  auto alive = alive_;
  // Take the statement and the SQL out first: the lambda capture moves
  // `submission`, and argument evaluation order is unspecified.
  query::Statement stmt = std::move(*submission.statement);
  submission.statement.reset();
  std::string sql = submission.sql;
  exec_statement(
      std::move(stmt), sql, std::move(options),
      [this, alive, sub = std::move(submission)](
          Result<core::ExecResult> outcome) {
        if (!*alive) return;
        finish(sub.session, sub, std::move(outcome));
      });
}

void QueryService::finish(SessionId session_id, const Submission& submission,
                          Result<core::ExecResult> outcome) {
  TenantStats& ts = tenant_entry(submission.tenant);
  TenantRuntime& rt = runtime_[submission.tenant];
  if (submission.kind == query::Statement::Kind::kSelect &&
      rt.inflight_selects > 0) {
    --rt.inflight_selects;
  }

  Session* s = session(session_id);
  std::string prefixed;
  if (!submission.aq_name.empty() && s != nullptr) {
    prefixed = s->name_prefix() + submission.aq_name;
  }
  if (outcome.is_ok() && !prefixed.empty()) {
    if (submission.kind == query::Statement::Kind::kCreateAq) {
      if (s->state() == SessionState::kClosed) {
        // Registration raced with disconnect: don't leak an ownerless AQ.
        drop_query(prefixed);
      } else {
        query_owner_[prefixed] = session_id;
        s->queries_.insert(prefixed);
        ++rt.aqs;
      }
    } else if (submission.kind == query::Statement::Kind::kDropAq) {
      query_owner_.erase(prefixed);
      s->queries_.erase(prefixed);
      if (rt.aqs > 0) --rt.aqs;
    }
  }

  if (s == nullptr || s->state() == SessionState::kClosed) return;
  Delivery d;
  d.at = system_->loop().now();
  d.statement_id = submission.statement_id;
  if (outcome.is_ok()) {
    d.kind = Delivery::Kind::kResult;
    d.message = std::move(outcome.value().message);
    d.rows = std::move(outcome.value().rows);
    d.shards_answered = outcome.value().shards_answered;
    d.shards_total = outcome.value().shards_total;
    if (d.shards_total >= 0 && d.shards_answered < d.shards_total) {
      ++ts.partial_results;
    }
    ++ts.completed;
  } else {
    d.kind = Delivery::Kind::kError;
    d.message = outcome.status().to_string();
    ++ts.errors;
  }
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kDelivery,
                      outcome.is_ok() ? "result" : "error", d.at,
                      "statement " + std::to_string(submission.statement_id));
  s->deliver(std::move(d));
}

std::string QueryService::stats_json() const {
  // One sorted walk of the metrics registry renders every section — the
  // service's own (sessions, admission, tenants) and everything the system
  // components enrolled (scan_broker, network, health, eval, sync) — with
  // JsonWriter handling escaping. Same-seed runs produce identical bytes.
  aorta::util::JsonWriter w(2);
  system_->metrics().write_json(w);
  std::string out = w.take();
  out += '\n';
  return out;
}

}  // namespace aorta::server
