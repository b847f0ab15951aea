// Client sessions of the multi-tenant query service.
//
// A Session is one client connection belonging to a tenant: it submits
// declarative statements through the service's admission controller and
// receives everything the system produces for it — statement results,
// continuous-query rows, action outcomes, errors — through a bounded
// mailbox. The mailbox replaces the single-client "caller blocks on
// exec()" model: results are buffered with shed-oldest overflow and drop
// accounting, and the client drains them at its own pace.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "query/executor.h"
#include "util/bounded_queue.h"
#include "util/time.h"

namespace aorta::server {

using TenantId = std::string;
using SessionId = std::uint64_t;

// One item of a session's mailbox.
struct Delivery {
  enum class Kind {
    kResult,   // a submitted statement completed (message + SELECT rows)
    kError,    // a submitted statement failed
    kRow,      // a continuous query owned by this session produced a row
    kOutcome,  // an action of an owned query completed (usable or not)
  };
  Kind kind = Kind::kResult;
  aorta::util::TimePoint at;
  std::uint64_t statement_id = 0;  // kResult / kError: which submission
  std::string query;               // kRow / kOutcome: owning AQ name
  std::string message;             // result message / error / outcome detail
  std::vector<query::Row> rows;    // kResult: SELECT rows; kRow: one row
  // kRow: the row was evaluated over last-known-good values because its
  // source device is quarantined (the broker's degradation marker).
  bool degraded = false;
  // kResult of a sharded one-shot SELECT: how many shards contributed a
  // partial out of how many exist. answered < total marks a partial
  // result. -1/-1 everywhere else (core::ExecResult's markers, passed
  // through).
  int shards_answered = -1;
  int shards_total = -1;
};

enum class SessionState { kActive, kDraining, kClosed };

std::string_view session_state_name(SessionState state);

struct SessionStats {
  std::uint64_t submitted = 0;  // statements offered to the service
  std::uint64_t rejected = 0;   // refused at admission (queue full / quota)
  std::uint64_t completed = 0;  // kResult deliveries
  std::uint64_t errors = 0;     // kError deliveries
  std::uint64_t rows = 0;       // continuous rows delivered
  std::uint64_t outcomes = 0;   // action outcomes delivered
};

class Session {
 public:
  Session(SessionId id, TenantId tenant, std::size_t mailbox_capacity);

  SessionId id() const { return id_; }
  const TenantId& tenant() const { return tenant_; }
  SessionState state() const { return state_; }

  // Namespace prefix applied to this session's CREATE AQ / DROP AQ names,
  // so tenants cannot collide on (or drop) each other's queries.
  const std::string& name_prefix() const { return name_prefix_; }

  // ---- mailbox -------------------------------------------------------------
  // Buffer one delivery (bounded: the oldest item is shed when full).
  void deliver(Delivery delivery);

  // Take everything buffered, oldest first.
  std::vector<Delivery> drain();

  std::size_t mailbox_size() const { return mailbox_.size(); }
  std::uint64_t mailbox_dropped() const { return mailbox_.shed(); }

  // Observer invoked after each delivery is buffered, with the buffered
  // item (closed-loop workload clients use it to pace their next
  // submission). It must not deliver to this session.
  void set_notify(std::function<void(const Delivery&)> notify) {
    notify_ = std::move(notify);
  }

  const SessionStats& stats() const { return stats_; }

 private:
  friend class QueryService;

  SessionId id_;
  TenantId tenant_;
  std::string name_prefix_;
  SessionState state_ = SessionState::kActive;
  aorta::util::BoundedQueue<Delivery> mailbox_;
  std::function<void(const Delivery&)> notify_;
  SessionStats stats_;

  // Service-side bookkeeping.
  std::set<std::string> queries_;         // owned AQ names (prefixed)
  std::uint64_t inflight_selects_ = 0;    // dispatched, not yet completed
  std::uint64_t pending_aq_creates_ = 0;  // queued CREATE AQs not dispatched
  std::uint64_t next_statement_id_ = 1;
};

}  // namespace aorta::server
