// Admission control for the multi-tenant query service.
//
// Submissions wait in per-tenant FIFO queues under one global capacity
// bound. Overflow either rejects the new submission or sheds the oldest
// one from the most-backlogged tenant (so a flooding tenant sheds its own
// backlog before touching anyone else's). Dequeueing is weighted-fair
// stride scheduling across tenants: each dispatched statement advances the
// tenant's virtual pass by 1/weight, and the tenant with the smallest pass
// goes next — a 10x-hotter tenant gets its fair share, not the whole
// service.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "query/ast.h"
#include "server/session.h"
#include "util/bounded_queue.h"

namespace aorta::server {

// One statement waiting for dispatch.
struct Submission {
  SessionId session = 0;
  TenantId tenant;
  std::uint64_t statement_id = 0;
  std::string sql;
  // `sql` as submit() parsed it; dispatch moves it to the engine and lets
  // go of it (held by a shared_ptr only so that a Submission is copyable).
  std::shared_ptr<query::Statement> statement;
  query::Statement::Kind kind = query::Statement::Kind::kSelect;
  std::string aq_name;  // kCreateAq / kDropAq: unprefixed query name
  aorta::util::TimePoint enqueued_at;
  std::uint64_t seq = 0;  // global arrival order
};

struct AdmissionConfig {
  // Total submissions buffered across all tenants.
  std::size_t queue_capacity = 1024;
  aorta::util::OverflowPolicy policy = aorta::util::OverflowPolicy::kRejectNew;
  // Weighted-fair dequeue across tenants; false = global FIFO (the
  // baseline a fairness bench compares against).
  bool fair_dequeue = true;
  // Per-tenant quotas, enforced by the service.
  std::size_t max_aqs_per_tenant = 64;
  std::size_t max_inflight_selects_per_tenant = 32;
};

struct AdmissionStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;    // accepted into the queue
  std::uint64_t rejected = 0;    // refused (kRejectNew overflow)
  std::uint64_t shed = 0;        // dropped while queued (kShedOldest)
  std::uint64_t dispatched = 0;  // handed to the engine
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {}

  const AdmissionConfig& config() const { return config_; }

  // Dequeue weight for a tenant (default 1.0; larger = bigger share).
  void set_tenant_weight(const TenantId& tenant, double weight);

  // Queue one submission. Returns false when rejected. Under kShedOldest a
  // full queue sheds the oldest submission of the most-backlogged tenant;
  // `on_shed` (optional) observes what was dropped.
  bool submit(Submission submission,
              const std::function<void(const Submission&)>& on_shed = {});

  // Pick the next submission to dispatch: the eligible-headed tenant with
  // the smallest virtual pass (FIFO within a tenant). `eligible` lets the
  // caller defer tenants at their in-flight quota; a tenant whose head is
  // deferred is skipped without losing its place. Returns nullopt when
  // nothing is eligible.
  std::optional<Submission> next(
      const std::function<bool(const Submission&)>& eligible = {});

  std::size_t queued() const { return queued_; }
  std::size_t queued_for(const TenantId& tenant) const;
  const AdmissionStats& stats() const { return stats_; }

 private:
  struct TenantQueue {
    std::deque<Submission> items;
    double weight = 1.0;
    double pass = 0.0;  // stride-scheduling virtual time
  };

  AdmissionConfig config_;
  std::map<TenantId, TenantQueue> tenants_;  // ordered: deterministic scans
  AdmissionStats stats_;
  std::size_t queued_ = 0;
  double global_pass_ = 0.0;  // pass of the last dispatched tenant
};

}  // namespace aorta::server
