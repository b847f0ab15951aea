#include "core/engine.h"

#include <algorithm>

#include "core/aorta.h"
#include "core/builtins.h"
#include "util/logging.h"

namespace aorta::core {

using aorta::util::Duration;
using aorta::util::Status;

Engine::Engine(Aorta& host, int shard, net::NodeId node)
    : host_(host),
      config_(host.config()),
      metrics_(host.metrics().scoped(
          shard < 0 ? "" : "shard." + std::to_string(shard) + ".")),
      tracer_(config_.trace_capacity),
      rng_(shard < 0 ? aorta::util::Rng(config_.seed)
                     : host.engine().rng_.fork()),
      loop_index_(shard < 0 ? 0 : host.runtime().add_loop()),
      loop_(host.runtime().loop(loop_index_)),
      network_(loop_, rng_.fork()),
      registry_(&network_, loop_, rng_.fork()),
      comm_(&registry_, &network_, node),
      scan_broker_(&registry_, &comm_, loop_,
                   {.freshness = config_.scan_freshness,
                    .coalesce = config_.shared_scans,
                    .degraded_staleness = config_.degraded_staleness}),
      locks_(loop_),
      prober_(&comm_, &registry_, loop_),
      health_(config_.health_supervision
                  ? std::make_unique<HealthSupervisor>(
                        &registry_, &comm_, loop_, config_.health)
                  : nullptr),
      executor_(&registry_, &comm_, &scan_broker_, &prober_, &locks_, loop_,
                &catalog_, rng_.fork(),
                {.epoch = config_.epoch,
                 .scheduler_name = config_.scheduler,
                 .use_probing = config_.use_probing,
                 .use_locks = config_.use_locks,
                 .max_retries = config_.max_retries,
                 .health = health_.get(),
                 .shard = shard,
                 .predicate_index = config_.predicate_index,
                 .aggregate_cache = config_.aggregate_cache}) {
  network_.join_fabric(&host.fabric(), loop_index_);
  tracer_.set_enabled(config_.tracing);
  host.tracers_.push_back(&tracer_);
  if (health_ != nullptr) {
    comm_.set_health(health_.get());
    scan_broker_.set_health(health_.get());
    // Surface quarantine/recovery next to query events in the trace.
    health_->set_transition_hook(
        [this, label = shard < 0 ? std::string() : node + ":"](
            const device::DeviceId& id, HealthState from, HealthState to) {
          AORTA_TRACE_INSTANT(&tracer_, obs::SpanCat::kHealth,
                              label + "transition:" + id, loop_->now(),
                              std::string(health_state_name(from)) + " -> " +
                                  std::string(health_state_name(to)));
        });
  }
  scan_broker_.set_tracer(&tracer_);
  executor_.set_tracer(&tracer_);
  comm_.engine().rpc().set_tracer(&tracer_);
  enroll_metrics();
  enroll_runtime_metrics();

  (void)registry_.register_type(devices::camera_type_info());
  (void)registry_.register_type(devices::sensor_type_info());
  (void)registry_.register_type(devices::phone_type_info());
  register_builtin_function_library(&catalog_, &registry_);
  register_builtin_action_library(&catalog_, &registry_, &comm_);
  executor_.start();
}

Engine::~Engine() {
  metrics_.unenroll_all();
  runtime_metrics_.unenroll_all();
  std::erase(host_.tracers_, &tracer_);
  host_.runtime().retire(loop_index_);
}

void Engine::enroll_runtime_metrics() {
  aorta::util::LoopGroup& runtime = host_.runtime();
  runtime_metrics_ =
      host_.metrics().scoped("runtime." + std::to_string(loop_index_) + ".");
  const aorta::util::LoopRuntimeStats& rs = runtime.stats(loop_index_);
  runtime_metrics_.enroll_counter("barrier_waits", &rs.barrier_waits);
  runtime_metrics_.enroll_counter("posts_out", &rs.posts_out);
  runtime_metrics_.enroll_counter("posts_in", &rs.posts_in);
  runtime_metrics_.enroll_counter("posts_clamped", &rs.posts_clamped);
  runtime_metrics_.enroll_counter("max_outbox_depth", &rs.max_outbox_depth);
  runtime_metrics_.enroll_gauge("queue_depth", [this]() {
    return static_cast<std::int64_t>(loop_->pending());
  });
  // Barrier stall time is wall-clock (how long this loop's thread parked
  // at the rendezvous): volatile, so it never perturbs the deterministic
  // snapshot; visible via snapshot_json(_, true).
  runtime.set_stall_sink(loop_index_,
                         [this](double ms) { stall_hist_.add(ms); });
  runtime_metrics_.enroll_histogram("barrier_stall_ms", &stall_hist_);
  runtime_metrics_.mark_volatile("barrier_stall_ms");
  // So is the wall time the loop spent running its events.
  runtime_metrics_.enroll_gauge("busy_ms", [&runtime, i = loop_index_]() {
    return static_cast<std::int64_t>(runtime.busy_ms(i));
  });
  runtime_metrics_.mark_volatile("busy_ms");
}

void Engine::enroll_metrics() {
  const net::NetworkStats& net = network_.stats();
  metrics_.enroll_counter("network.sent", &net.sent);
  metrics_.enroll_counter("network.delivered", &net.delivered);
  metrics_.enroll_counter("network.dropped_loss", &net.dropped_loss);
  metrics_.enroll_counter("network.dropped_no_route", &net.dropped_no_route);
  metrics_.enroll_counter("network.dropped_partition", &net.dropped_partition);
  metrics_.enroll_counter("network.dropped_offline", &net.dropped_offline);
  metrics_.enroll_counter("network.bounced", &net.bounced);
  metrics_.enroll_counter("network.dropped_chaos", &net.dropped_chaos);
  metrics_.enroll_counter("network.chaos_dup_copies", &net.chaos_dup_copies);
  metrics_.enroll_counter("network.chaos_reordered", &net.chaos_reordered);
  metrics_.enroll_counter("network.chaos_delayed", &net.chaos_delayed);
  metrics_.enroll_counter("network.cross_sent", &net.cross_sent);

  const net::RpcStats& rpc = comm_.engine().rpc().stats();
  metrics_.enroll_counter("network.rpc.completed", &rpc.completed);
  metrics_.enroll_counter("network.rpc.timeouts", &rpc.timeouts);
  metrics_.enroll_counter("network.rpc.late_replies", &rpc.late_replies);
  metrics_.enroll_counter("network.rpc.unreachable", &rpc.unreachable);
  metrics_.enroll_counter("network.rpc.slow_replies", &rpc.slow_replies);

  const sync::LockStats& locks = locks_.stats();
  metrics_.enroll_counter("sync.locks.acquisitions", &locks.acquisitions);
  metrics_.enroll_counter("sync.locks.releases", &locks.releases);
  metrics_.enroll_counter("sync.locks.contentions", &locks.contentions);
  metrics_.enroll_counter("sync.locks.max_queue_depth", &locks.max_queue_depth);
  metrics_.enroll_counter("sync.locks.wait_timeouts", &locks.wait_timeouts);
  const sync::ProbeStats& probes = prober_.stats();
  metrics_.enroll_counter("sync.probes.probes", &probes.probes);
  metrics_.enroll_counter("sync.probes.responses", &probes.responses);
  metrics_.enroll_counter("sync.probes.timeouts", &probes.timeouts);

  metrics_.enroll_gauge_bool("health.enabled",
                             [this]() { return health_ != nullptr; });
  if (health_ != nullptr) {
    const HealthStats& hs = health_->stats();
    metrics_.enroll_gauge("health.quarantined", [this]() {
      return static_cast<std::int64_t>(health_->quarantined_count());
    });
    metrics_.enroll_counter("health.reports_ok", &hs.reports_ok);
    metrics_.enroll_counter("health.reports_failed", &hs.reports_failed);
    metrics_.enroll_counter("health.quarantines", &hs.quarantines);
    metrics_.enroll_counter("health.recoveries", &hs.recoveries);
    metrics_.enroll_counter("health.probes_sent", &hs.probes_sent);
    metrics_.enroll_counter("health.probes_failed", &hs.probes_failed);
  }

  const query::EvalStats& es = executor_.eval_stats();
  metrics_.enroll_counter("eval.programs_compiled", &es.programs_compiled);
  metrics_.enroll_counter("eval.compiled_evals", &es.compiled_evals);
  const std::string& p = metrics_.prefix();
  executor_.set_index_metrics(metrics_.registry(), p + "eval.index.");
  executor_.set_agg_metrics(metrics_.registry(), p + "eval.agg.",
                            p + "broker.agg_cache.");
  scan_broker_.set_metrics(metrics_.registry(), p + "scan_broker.");
}

Status Engine::add_camera(const device::DeviceId& id, std::string ip,
                          devices::CameraPose pose, double range_m) {
  return registry_.add(std::make_unique<devices::PtzCamera>(
      id, std::move(ip), pose, range_m));
}

Status Engine::add_mote(const device::DeviceId& id, device::Location loc,
                        int hops) {
  AORTA_RETURN_IF_ERROR(
      registry_.add(std::make_unique<devices::Mica2Mote>(id, loc, hops)));
  // Deeper motes ride a slower, lossier multi-hop path.
  return network_.set_link(id, devices::Mica2Mote::link_for_hops(hops));
}

Status Engine::add_phone(const device::DeviceId& id, std::string phone_no,
                         device::Location loc) {
  return registry_.add(
      std::make_unique<devices::MmsPhone>(id, std::move(phone_no), loc));
}

devices::PtzCamera* Engine::camera(const device::DeviceId& id) {
  return dynamic_cast<devices::PtzCamera*>(registry_.find(id));
}
devices::Mica2Mote* Engine::mote(const device::DeviceId& id) {
  return dynamic_cast<devices::Mica2Mote*>(registry_.find(id));
}
devices::MmsPhone* Engine::phone(const device::DeviceId& id) {
  return dynamic_cast<devices::MmsPhone*>(registry_.find(id));
}

namespace {

// Schedule one validated event on its home slice's loop; when it fires it
// mutates only that slice's segment or registry.
void schedule_fault_event(const util::FaultEvent& e, Engine* home) {
  aorta::util::EventLoop* loop = &home->loop();
  net::Network* network = &home->network();
  device::DeviceRegistry* registry = &home->registry();
  loop->schedule(Duration::seconds(e.at_s), [loop, network, registry, e]() {
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
      case util::FaultEvent::Kind::kRevive: {
        device::Device* dev = registry->find(e.target);
        if (dev != nullptr) {
          dev->set_online(e.kind == util::FaultEvent::Kind::kRevive);
        }
        break;
      }
      case util::FaultEvent::Kind::kPartition:
        network->partition(e.target);
        break;
      case util::FaultEvent::Kind::kHeal:
        network->heal(e.target);
        break;
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike: {
        // Capture the link as it is *now* (it may have changed since the
        // plan was applied) and restore it when the spike interval ends.
        // All four verbs perturb the chaos_* fields, which draw from the
        // network's dedicated chaos RNG: injecting them never shifts the
        // main traffic streams (see net::LinkModel). Spike and restore
        // each touch only this verb's own fields against the link's state
        // at that moment, so overlapping spikes on one link (a storm
        // stacking loss + duplicate + reorder + delay) compose and
        // un-compose independently instead of clobbering each other with
        // whole-link snapshots.
        const net::LinkModel* current = network->link(e.target);
        if (current == nullptr) break;
        const net::LinkModel before = *current;
        net::LinkModel spiked = before;
        switch (e.kind) {
          case util::FaultEvent::Kind::kLossSpike:
            spiked.chaos_loss_prob = e.prob;
            break;
          case util::FaultEvent::Kind::kDuplicateSpike:
            spiked.chaos_dup_factor = e.factor;
            break;
          case util::FaultEvent::Kind::kReorderSpike:
            spiked.chaos_reorder_prob = e.prob;
            spiked.chaos_reorder_window_s = e.window_s;
            break;
          case util::FaultEvent::Kind::kDelaySpike:
            spiked.chaos_delay_s = e.add_s;
            break;
          default:
            break;
        }
        (void)network->set_link(e.target, spiked);
        loop->schedule(Duration::seconds(e.for_s), [network, e, before]() {
          const net::LinkModel* cur = network->link(e.target);
          if (cur == nullptr) return;
          net::LinkModel next = *cur;
          switch (e.kind) {
            case util::FaultEvent::Kind::kLossSpike:
              next.chaos_loss_prob = before.chaos_loss_prob;
              break;
            case util::FaultEvent::Kind::kDuplicateSpike:
              next.chaos_dup_factor = before.chaos_dup_factor;
              break;
            case util::FaultEvent::Kind::kReorderSpike:
              next.chaos_reorder_prob = before.chaos_reorder_prob;
              next.chaos_reorder_window_s = before.chaos_reorder_window_s;
              break;
            case util::FaultEvent::Kind::kDelaySpike:
              next.chaos_delay_s = before.chaos_delay_s;
              break;
            default:
              break;
          }
          (void)network->set_link(e.target, next);
        });
        break;
      }
      case util::FaultEvent::Kind::kGlitchSpike: {
        device::Device* dev = registry->find(e.target);
        if (dev == nullptr) break;
        double restored = dev->reliability().glitch_prob;
        dev->reliability().glitch_prob = e.prob;
        loop->schedule(Duration::seconds(e.for_s), [registry, e, restored]() {
          device::Device* d = registry->find(e.target);
          if (d != nullptr) d->reliability().glitch_prob = restored;
        });
        break;
      }
    }
    AORTA_LOG(kInfo, "fault")
        << util::fault_event_kind_name(e.kind) << " " << e.target;
  });
}

}  // namespace

Status schedule_fault_plan(const util::FaultPlan& plan,
                           const std::vector<Engine*>& slices) {
  // Place and validate every event before scheduling any, so a typo in a
  // plan file fails the whole apply instead of silently no-opping one
  // event mid-run.
  std::vector<Engine*> homes;
  homes.reserve(plan.events.size());
  for (const util::FaultEvent& e : plan.events) {
    if (e.shard >= 0) {
      return aorta::util::invalid_argument_error(
          "fault plan targets shard " + std::to_string(e.shard) +
          " but this system has no sharded plane (run with num_shards > 0)");
    }
    const bool device_event = e.kind == util::FaultEvent::Kind::kCrash ||
                              e.kind == util::FaultEvent::Kind::kRevive ||
                              e.kind == util::FaultEvent::Kind::kGlitchSpike;
    auto home = std::find_if(slices.begin(), slices.end(), [&](Engine* s) {
      return device_event ? s->registry().find(e.target) != nullptr
                          : s->network().attached(e.target);
    });
    if (home == slices.end()) {
      return aorta::util::not_found_error(
          std::string("fault plan targets ") +
          (device_event ? "unknown device: " : "unattached node: ") +
          e.target);
    }
    homes.push_back(*home);
  }
  for (std::size_t i = 0; i < homes.size(); ++i) {
    schedule_fault_event(plan.events[i], homes[i]);
  }
  return Status::ok();
}

}  // namespace aorta::core
