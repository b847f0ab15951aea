// QueryService: the multi-tenant front-end over core::Aorta.
//
// The seed's Aorta::exec() is a single synchronous entry point; this layer
// turns the engine into a *service* (the paper frames Aorta as a shared
// declarative service over the pervasive device network, Section 2.1):
//
//   connect()    -> a Session with its own AQ namespace and result mailbox
//   submit()     -> statements pass admission control (bounded queue,
//                   per-tenant quotas, weighted-fair dequeue)
//   dispatch     -> a fixed-cadence service tick drains the queue into
//                   Aorta::exec_async
//   delivery     -> results, continuous rows and action outcomes are routed
//                   to the owning session's mailbox
//
// Everything runs inside the discrete-event simulation: admission
// latencies are simulated time, and identical seeds + workloads produce
// byte-identical stats (see stats_json).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/aorta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission.h"
#include "server/session.h"
#include "shard/plane.h"
#include "util/stats.h"

namespace aorta::server {

struct ServiceConfig {
  AdmissionConfig admission;
  std::size_t mailbox_capacity = 256;
  // Service tick: how often queued submissions are drained, and how many
  // per tick (together they bound dispatch throughput).
  aorta::util::Duration dispatch_interval = aorta::util::Duration::millis(100);
  std::size_t max_dispatch_per_tick = 64;
  // Dequeue weights (default 1.0). Set before tenants submit.
  std::map<TenantId, double> tenant_weights;
  // Sharded query plane: > 0 builds a shard::Plane (czar + that many
  // worker engines) on the system and routes every session statement
  // through it; devices must then be added via plane() instead of the host
  // Aorta. 0 = the classic direct single-engine path; 1 = the sharded
  // machinery with one worker (the ablation baseline).
  int num_shards = 0;
};

// Per-tenant service counters.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // at submit (queue full / quota)
  std::uint64_t shed = 0;      // dropped while queued
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;  // statements that returned a result
  std::uint64_t partial_results = 0;  // SELECTs answered by < all shards
  std::uint64_t errors = 0;
  std::uint64_t rows_delivered = 0;
  std::uint64_t rows_degraded = 0;  // rows carrying the degradation marker
  std::uint64_t outcomes_delivered = 0;
  obs::LatencyHistogram admission_latency_ms;  // enqueue -> dispatch
};

class QueryService {
 public:
  QueryService(core::Aorta* system, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- session lifecycle ---------------------------------------------------
  SessionId connect(const TenantId& tenant);
  // Begin draining: no new submissions; the session's AQs keep producing
  // into the mailbox until disconnect.
  aorta::util::Status drain_session(SessionId id);
  // Drop the session's continuous queries and close it. Its stats remain.
  aorta::util::Status disconnect(SessionId id);

  Session* session(SessionId id);
  const Session* session(SessionId id) const;
  std::size_t active_sessions() const;

  // ---- statement submission ------------------------------------------------
  // Submit one statement for asynchronous execution. On success returns
  // the statement id its kResult/kError delivery will carry. Fails fast on
  // unknown/closed sessions, parse errors, a full queue (kRejectNew), or
  // the per-tenant AQ quota.
  aorta::util::Result<std::uint64_t> submit(SessionId id,
                                            const std::string& sql);

  // ---- statistics ----------------------------------------------------------
  const AdmissionController& admission() const { return admission_; }
  const std::map<TenantId, TenantStats>& tenant_stats() const {
    return tenants_;
  }
  // Enqueue -> dispatch latency across all tenants.
  const aorta::util::Summary& admission_latency_ms() const {
    return admission_latency_ms_;
  }

  // Deterministic JSON rendering of every enrolled metric — the server's
  // own sections plus everything the system components registered — as a
  // sorted walk of the metrics registry: two same-seed runs compare equal.
  std::string stats_json() const;

  // The sharded query plane (nullptr when ServiceConfig::num_shards == 0).
  // World building in sharded mode goes through here.
  shard::Plane* plane() { return plane_.get(); }

 private:
  void on_tick();
  // Per-tenant counters, created (and enrolled on the registry under
  // "tenants.<tenant>.*") on first contact.
  TenantStats& tenant_entry(const TenantId& tenant);
  // Statement execution + AQ teardown, routed to the czar in sharded mode
  // and to the host engine otherwise. `stmt` is `sql` as submit() parsed it.
  void exec_statement(
      query::Statement stmt, const std::string& sql, core::ExecOptions options,
      std::function<void(aorta::util::Result<core::ExecResult>)> done);
  void drop_query(const std::string& prefixed_name);
  // Mailbox delivery of one action outcome (shared by the executor
  // trace-sink path and the czar outcome-sink path).
  void deliver_outcome(const std::string& query, aorta::util::TimePoint at,
                       const std::string& detail);
  void dispatch(Submission submission);
  void finish(SessionId session_id, const Submission& submission,
              aorta::util::Result<core::ExecResult> outcome);
  bool eligible(const Submission& submission) const;

  // Live (non-cumulative) per-tenant counters backing quota checks.
  struct TenantRuntime {
    std::uint64_t aqs = 0;               // currently registered AQs
    std::uint64_t pending_creates = 0;   // queued CREATE AQs
    std::uint64_t inflight_selects = 0;  // dispatched, not yet completed
  };

  core::Aorta* system_;
  ServiceConfig config_;
  // The system's observability substrate; the service enrolls its
  // sessions/admission/tenants sections here and removes them on
  // destruction (the service's lifetime is shorter than the system's).
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  std::unique_ptr<shard::Plane> plane_;  // nullptr = direct path
  AdmissionController admission_;
  // Never erased (a closed session stays, kClosed): row hooks hold
  // Session pointers.
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  std::map<std::string, SessionId> query_owner_;  // prefixed AQ name -> session
  std::map<TenantId, TenantStats> tenants_;
  std::map<TenantId, TenantRuntime> runtime_;
  aorta::util::Summary admission_latency_ms_;
  SessionId next_session_id_ = 1;
  std::uint64_t next_seq_ = 1;
  // Shared with callbacks queued on the event loop so a destroyed service
  // turns them into no-ops instead of dangling-`this` calls.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace aorta::server
