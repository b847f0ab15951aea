// Shared action operators.
//
// Section 2.3: "we make concurrent queries that have the same embedded
// action ... share a single action operator in their query plans. We add
// the query ID to the input tuples ... so that the operator knows which
// tuples are for which query. Such action operator sharing saves system
// resources and facilitates group optimization of actions."
//
// Within an evaluation epoch every query deposits its instantiated action
// requests here; at the end of the epoch the operator runs the pipeline
// that ties the whole system together:
//   probe candidates (Section 4)  ->  exclude unavailable devices,
//   gather physical status        ->  build the scheduler's device view,
//   schedule the batch (Section 5)->  multi-query cost-based optimization,
//   execute under device locks    ->  action atomicity (Section 4).
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "device/health.h"
#include "obs/trace.h"
#include "query/catalog.h"
#include "sched/scheduler.h"
#include "sync/lock_manager.h"
#include "sync/prober.h"
#include "util/stats.h"

namespace aorta::query {

// Outcome counters per originating query.
struct QueryActionStats {
  std::uint64_t requests = 0;
  std::uint64_t usable = 0;
  std::uint64_t degraded = 0;   // blurred / wrong position / partial
  std::uint64_t failed = 0;     // device error, timeout
  std::uint64_t no_candidate = 0;  // every candidate probed dead

  std::uint64_t total_bad() const { return degraded + failed + no_candidate; }
};

// Receives one per-request action outcome: the originating query, the
// virtual time the outcome was decided and a readable detail
// ("photo on cam1: usable").
using OutcomeSink = std::function<void(const std::string& query,
                                       aorta::util::TimePoint at,
                                       const std::string& detail)>;

struct ActionOperatorStats {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;  // failover re-dispatches
  // Candidates removed before probing because their device is quarantined
  // (health supervision saves the probe *and* the doomed action attempt).
  std::uint64_t quarantine_filtered = 0;
  aorta::util::Summary batch_size;
  aorta::util::Summary service_makespan_s;
  aorta::util::Summary actual_makespan_s;
};

class ActionOperator {
 public:
  struct Options {
    bool use_probing = true;  // Section 6.2 ablation switches
    bool use_locks = true;
    // Failover rounds: a request whose action fails on its selected device
    // is rescheduled on its remaining candidates up to this many times.
    int max_retries = 1;
    // Health supervision (nullable = off): quarantined devices are removed
    // from candidate lists before probing, and per-device action outcomes
    // are reported back.
    device::HealthView* health = nullptr;
    // Worker shard this operator's scheduler belongs to (-1 = unsharded).
    // Stamped onto every enqueued request so cross-shard action routing is
    // visible end to end.
    int shard = -1;
  };

  ActionOperator(const ActionDef* action, sync::Prober* prober,
                 sync::LockManager* locks, device::DeviceRegistry* registry,
                 aorta::util::EventLoop* loop, sched::Scheduler* scheduler,
                 aorta::util::Rng rng, Options options);

  const std::string& action_name() const { return action_->name; }

  // Per-request outcome hook (nullable = off).
  void set_outcome_sink(OutcomeSink sink) { outcome_sink_ = std::move(sink); }
  // Span tracing (nullable = off): a `batch` instant per scheduling round
  // and an `outcome` instant per request outcome.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Deposit one instantiated request (already tagged with its query id).
  void enqueue(sched::ActionRequest request);

  // Schedule and execute everything deposited since the last flush.
  // `done` fires when all actions completed; per-query outcomes are
  // accumulated into stats().
  void flush(std::function<void()> done);

  bool has_pending() const { return !pending_.empty(); }

  const ActionOperatorStats& stats() const { return stats_; }
  const std::map<std::string, QueryActionStats>& query_stats() const {
    return query_stats_;
  }
  // Makespans of every scheduling round (for experiment reporting).
  const std::vector<sched::ScheduleResult>& schedule_history() const {
    return schedule_history_;
  }

 private:
  void run_batch(std::vector<sched::ActionRequest> batch,
                 std::vector<sync::ProbeInfo> probes, std::function<void()> done,
                 int attempt);
  // Outcome details are only formatted when a sink or live tracer listens.
  bool outcomes_observed() const {
    return outcome_sink_ || AORTA_TRACE_ENABLED(tracer_);
  }
  void report_outcome(const std::string& query, const std::string& detail);

  const ActionDef* action_;
  sync::Prober* prober_;
  sync::LockManager* locks_;
  device::DeviceRegistry* registry_;
  aorta::util::EventLoop* loop_;
  sched::Scheduler* scheduler_;
  aorta::util::Rng rng_;
  Options options_;

  std::vector<sched::ActionRequest> pending_;
  std::uint64_t next_request_id_ = 1;

  ActionOperatorStats stats_;
  std::map<std::string, QueryActionStats> query_stats_;
  std::vector<sched::ScheduleResult> schedule_history_;
  OutcomeSink outcome_sink_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace aorta::query
