#include "query/action_operator.h"

#include <algorithm>
#include <set>

#include "sched/executor.h"
#include "util/logging.h"
#include "util/strings.h"

namespace aorta::query {

using aorta::util::Result;

ActionOperator::ActionOperator(const ActionDef* action, sync::Prober* prober,
                               sync::LockManager* locks,
                               device::DeviceRegistry* registry,
                               aorta::util::EventLoop* loop,
                               sched::Scheduler* scheduler, aorta::util::Rng rng,
                               Options options)
    : action_(action),
      prober_(prober),
      locks_(locks),
      registry_(registry),
      loop_(loop),
      scheduler_(scheduler),
      rng_(std::move(rng)),
      options_(options) {}

void ActionOperator::enqueue(sched::ActionRequest request) {
  request.id = next_request_id_++;
  request.action_name = action_->name;
  request.shard = options_.shard;
  ++stats_.requests;
  ++query_stats_[request.query_id].requests;
  pending_.push_back(std::move(request));
}

void ActionOperator::flush(std::function<void()> done) {
  if (pending_.empty()) {
    done();
    return;
  }
  std::vector<sched::ActionRequest> batch = std::move(pending_);
  pending_.clear();

  // Health supervision: drop quarantined devices from candidate lists
  // before probing, so neither a probe nor an action attempt is wasted on
  // a device the supervisor already isolated.
  if (options_.health != nullptr) {
    std::vector<sched::ActionRequest> admitted;
    for (auto& r : batch) {
      std::vector<device::DeviceId> live;
      for (auto& c : r.candidates) {
        if (options_.health->is_quarantined(c)) {
          ++stats_.quarantine_filtered;
        } else {
          live.push_back(c);
        }
      }
      if (live.empty()) {
        ++query_stats_[r.query_id].no_candidate;
        if (outcomes_observed()) {
          report_outcome(r.query_id,
                         action_->name + ": no candidate (all quarantined)");
        }
        continue;
      }
      r.candidates = std::move(live);
      admitted.push_back(std::move(r));
    }
    batch = std::move(admitted);
    if (batch.empty()) {
      done();
      return;
    }
  }
  ++stats_.batches;
  stats_.batch_size.add(static_cast<double>(batch.size()));

  // Distinct candidate devices across the batch.
  std::set<device::DeviceId> candidate_set;
  for (const auto& r : batch) {
    candidate_set.insert(r.candidates.begin(), r.candidates.end());
  }
  std::vector<device::DeviceId> candidates(candidate_set.begin(),
                                           candidate_set.end());

  if (options_.use_probing) {
    // Probe every candidate; unresponsive devices are excluded from the
    // device selection optimization (Section 4).
    prober_->probe_candidates(
        candidates,
        [this, batch = std::move(batch), done = std::move(done)](
            std::vector<sync::ProbeInfo> probes) mutable {
          run_batch(std::move(batch), std::move(probes), std::move(done),
                    /*attempt=*/0);
        });
    return;
  }

  // Probing disabled (ablation): trust the registry blindly — every listed
  // device is assumed alive with unknown (default) physical status.
  std::vector<sync::ProbeInfo> assumed;
  for (const auto& id : candidates) {
    if (registry_->find(id) != nullptr) {
      sync::ProbeInfo info;
      info.id = id;
      assumed.push_back(std::move(info));
    }
  }
  run_batch(std::move(batch), std::move(assumed), std::move(done),
            /*attempt=*/0);
}

void ActionOperator::run_batch(std::vector<sched::ActionRequest> batch,
                               std::vector<sync::ProbeInfo> probes,
                               std::function<void()> done, int attempt) {
  // Scheduler's device view: probed physical status plus numeric static
  // attributes (camera poses etc.), which per-device cost resolution
  // needs (PhotoCostModel's target_x/y/z -> pan/tilt conversion).
  std::vector<sched::SchedDevice> devices;
  std::set<device::DeviceId> alive;
  // "What kind of device physical status is concerned and how it is
  // considered in the optimization is specified in the action profile"
  // (Section 4): keep only the status attributes the profile names.
  const std::vector<std::string>& wanted = action_->profile.status_attrs();
  for (const auto& probe : probes) {
    sched::SchedDevice dev;
    dev.id = probe.id;
    if (wanted.empty()) {
      dev.status = probe.status;
    } else {
      for (const std::string& attr : wanted) {
        auto it = probe.status.find(attr);
        if (it != probe.status.end()) dev.status.emplace(attr, it->second);
      }
    }
    if (const auto* attrs = registry_->static_attrs(probe.id)) {
      for (const auto& [name, value] : *attrs) {
        if (const double* d = std::get_if<double>(&value)) {
          dev.status.emplace(name, *d);
        } else if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) {
          dev.status.emplace(name, static_cast<double>(*i));
        } else if (const device::Location* loc =
                       std::get_if<device::Location>(&value)) {
          dev.status.emplace("pose_x", loc->x);
          dev.status.emplace("pose_y", loc->y);
          dev.status.emplace("pose_z", loc->z);
        }
      }
    }
    devices.push_back(std::move(dev));
    alive.insert(probe.id);
  }

  // Restrict candidate sets to devices that answered their probe; requests
  // whose candidates all died fail outright.
  std::vector<sched::ActionRequest> schedulable;
  for (auto& r : batch) {
    std::vector<device::DeviceId> live;
    for (auto& c : r.candidates) {
      if (alive.count(c) > 0) live.push_back(c);
    }
    if (live.empty()) {
      ++query_stats_[r.query_id].no_candidate;
      continue;
    }
    r.candidates = std::move(live);
    schedulable.push_back(std::move(r));
  }
  if (schedulable.empty()) {
    done();
    return;
  }

  sched::ScheduleResult schedule = scheduler_->schedule(
      schedulable, devices, *action_->cost_model, rng_);
  stats_.service_makespan_s.add(schedule.service_makespan_s);
  AORTA_TRACE_INSTANT(
      tracer_, obs::SpanCat::kAction, "batch:" + action_->name, loop_->now(),
      std::to_string(schedulable.size()) + " request(s) on " +
          std::to_string(devices.size()) + " device(s), planned makespan " +
          aorta::util::str_format("%.2fs", schedule.service_makespan_s));

  // Execute through the registered action implementation, under locks.
  auto execute_fn = [this](const device::DeviceId& device,
                           const sched::ActionRequest& request,
                           std::function<void(Result<sched::ActionOutcome>)> cb) {
    if (!action_->impl) {
      cb(Result<sched::ActionOutcome>(aorta::util::internal_error(
          "action " + action_->name + " has no bound implementation")));
      return;
    }
    // The binding argument (photo's c.ip, sendphoto's p.phone_no) is only
    // known once device selection picked the executor: fill it from the
    // chosen device's static attributes so implementations see the fully
    // instantiated argument list.
    std::vector<device::Value> args = request.action_args;
    if (action_->binding_param < args.size()) {
      if (const auto* attrs = registry_->static_attrs(device)) {
        auto it = attrs->find(action_->binding_attr);
        if (it != attrs->end()) args[action_->binding_param] = it->second;
      }
    }
    action_->impl(device, args, std::move(cb));
  };

  auto executor = std::make_shared<sched::ScheduleExecutor>(
      locks_, loop_, execute_fn, options_.use_locks);
  // Keep request metadata alive to map outcomes back to queries.
  auto requests_copy =
      std::make_shared<std::vector<sched::ActionRequest>>(schedulable);
  schedule_history_.push_back(schedule);

  // Device assignments, needed below to fail over a retried request away
  // from the device that just failed it.
  auto schedule_copy = std::make_shared<sched::ScheduleResult>(schedule);

  executor->execute(
      schedule, schedulable,
      [this, executor, requests_copy, schedule_copy, probes, attempt,
       done = std::move(done)](sched::ExecutionReport report) mutable {
        stats_.actual_makespan_s.add(report.actual_makespan_s);

        // Failover: a request whose action failed (device error or
        // timeout — not a merely degraded result) is retried on its
        // remaining candidates, up to max_retries rounds.
        std::vector<sched::ActionRequest> retry;
        for (auto& r : *requests_copy) {
          QueryActionStats& qs = query_stats_[r.query_id];
          auto it = report.outcomes.find(r.id);
          const bool failed = it == report.outcomes.end() || !it->second.ok;
          const sched::ScheduledItem* item = schedule_copy->find(r.id);
          // Feed health supervision per attempt on the scheduled device
          // (a degraded-but-delivered result still counts as the device
          // responding).
          if (options_.health != nullptr && item != nullptr) {
            options_.health->report(
                item->device, device::HealthOutcomeKind::kAction, !failed);
          }
          if (failed && attempt < options_.max_retries) {
            sched::ActionRequest next = r;
            if (item != nullptr) {
              std::erase(next.candidates, item->device);
            }
            if (!next.candidates.empty()) {
              ++stats_.retries;
              retry.push_back(std::move(next));
              continue;  // outcome accounted after the retry round
            }
          }
          if (failed) {
            ++qs.failed;
          } else if (it->second.usable()) {
            ++qs.usable;
          } else {
            ++qs.degraded;
          }
          if (outcomes_observed()) {
            std::string where = item == nullptr ? "?" : item->device;
            std::string what =
                failed ? "failed"
                       : (it->second.usable() ? "usable" : it->second.detail);
            report_outcome(r.query_id,
                           action_->name + " on " + where + ": " + what);
          }
        }

        if (retry.empty()) {
          done();
          return;
        }
        run_batch(std::move(retry), std::move(probes), std::move(done),
                  attempt + 1);
      });
}

void ActionOperator::report_outcome(const std::string& query,
                                    const std::string& detail) {
  AORTA_TRACE_INSTANT(tracer_, obs::SpanCat::kAction, "outcome:" + query,
                      loop_->now(), detail);
  if (outcome_sink_) outcome_sink_(query, loop_->now(), detail);
}

}  // namespace aorta::query
