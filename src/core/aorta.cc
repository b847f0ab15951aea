#include "core/aorta.h"

#include <optional>
#include <thread>

#include "core/builtins.h"
#include "device/profile_io.h"
#include "util/logging.h"
#include "util/strings.h"

// Propagate a Status failure out of exec() as a Result<ExecResult>.
#define AORTA_RETURN_IF_ERROR_EXEC(expr)                            \
  do {                                                              \
    ::aorta::util::Status _s = (expr);                              \
    if (!_s.is_ok()) return ::aorta::util::Result<ExecResult>(_s);  \
  } while (false)

namespace aorta::core {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;

Aorta::Aorta(Config config)
    : tracer_(config.trace_capacity), config_(config), rng_(config.seed) {
  tracer_.set_enabled(config_.tracing);
  tracers_.push_back(&tracer_);
  runtime_ = std::make_unique<aorta::util::LoopGroup>(config_.runtime_quantum);
  int threads = config_.runtime_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  runtime_->set_threads(threads);
  fabric_ = std::make_unique<net::Fabric>(runtime_.get());
  clock_ = runtime_->clock(0);
  loop_ = runtime_->control();
  aorta::util::Logger::instance().attach_clock(clock_);

  network_ = std::make_unique<net::Network>(loop_, rng_.fork());
  network_->join_fabric(fabric_.get(), 0);
  registry_ = std::make_unique<device::DeviceRegistry>(network_.get(),
                                                       loop_, rng_.fork());
  comm_ = std::make_unique<comm::CommLayer>(registry_.get(), network_.get());
  comm::ScanBroker::Options broker_options;
  broker_options.coalesce = config_.shared_scans;
  broker_options.freshness = config_.scan_freshness;
  broker_options.degraded_staleness = config_.degraded_staleness;
  scan_broker_ = std::make_unique<comm::ScanBroker>(
      registry_.get(), comm_.get(), loop_, broker_options);
  locks_ = std::make_unique<sync::LockManager>(loop_);
  prober_ = std::make_unique<sync::Prober>(comm_.get(), registry_.get(),
                                           loop_);
  if (config_.health_supervision) {
    health_ = std::make_unique<HealthSupervisor>(registry_.get(), comm_.get(),
                                                 loop_, config_.health);
    comm_->set_health(health_.get());
    scan_broker_->set_health(health_.get());
  }
  catalog_ = std::make_unique<query::Catalog>();

  query::ContinuousQueryExecutor::Options options;
  options.epoch = config_.epoch;
  options.scheduler_name = config_.scheduler;
  options.use_probing = config_.use_probing;
  options.use_locks = config_.use_locks;
  options.max_retries = config_.max_retries;
  options.health = health_.get();
  options.predicate_index = config_.predicate_index;
  options.aggregate_cache = config_.aggregate_cache;
  executor_ = std::make_unique<query::ContinuousQueryExecutor>(
      registry_.get(), comm_.get(), scan_broker_.get(), prober_.get(),
      locks_.get(), loop_, catalog_.get(), rng_.fork(), options);
  if (health_ != nullptr) {
    // Surface quarantine/recovery next to query events in the trace.
    health_->set_transition_hook([this](const device::DeviceId& id,
                                        HealthState from, HealthState to) {
      AORTA_TRACE_INSTANT(&tracer_, obs::SpanCat::kHealth, "transition:" + id,
                          loop_->now(),
                          std::string(health_state_name(from)) + " -> " +
                              std::string(health_state_name(to)));
    });
  }

  scan_broker_->set_tracer(&tracer_);
  executor_->set_tracer(&tracer_);
  comm_->engine().rpc().set_tracer(&tracer_);
  enroll_system_metrics();

  register_builtin_types();
  register_builtin_functions();
  register_builtin_actions();
  executor_->start();
}

void Aorta::enroll_system_metrics() {
  const net::NetworkStats& net = network_->stats();
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

  const net::RpcStats& rpc = comm_->engine().rpc().stats();
  metrics_.enroll_counter("network.rpc.completed", &rpc.completed);
  metrics_.enroll_counter("network.rpc.timeouts", &rpc.timeouts);
  metrics_.enroll_counter("network.rpc.late_replies", &rpc.late_replies);
  metrics_.enroll_counter("network.rpc.unreachable", &rpc.unreachable);
  metrics_.enroll_counter("network.rpc.slow_replies", &rpc.slow_replies);

  const sync::LockStats& locks = locks_->stats();
  metrics_.enroll_counter("sync.locks.acquisitions", &locks.acquisitions);
  metrics_.enroll_counter("sync.locks.releases", &locks.releases);
  metrics_.enroll_counter("sync.locks.contentions", &locks.contentions);
  metrics_.enroll_counter("sync.locks.max_queue_depth", &locks.max_queue_depth);
  metrics_.enroll_counter("sync.locks.wait_timeouts", &locks.wait_timeouts);
  const sync::ProbeStats& probes = prober_->stats();
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

  const query::EvalStats& es = executor_->eval_stats();
  metrics_.enroll_counter("eval.programs_compiled", &es.programs_compiled);
  metrics_.enroll_counter("eval.compiled_evals", &es.compiled_evals);
  executor_->set_index_metrics(&metrics_, "eval.index.");
  executor_->set_agg_metrics(&metrics_, "eval.agg.", "broker.agg_cache.");

  metrics_.enroll_counter("network.cross_sent", &net.cross_sent);
  metrics_.enroll_gauge("runtime.loops", [this]() {
    return static_cast<std::int64_t>(runtime_->size());
  });
  metrics_.enroll_gauge("runtime.windows", [this]() {
    return static_cast<std::int64_t>(runtime_->windows());
  });
  // Thread count is an execution-environment property, not virtual state:
  // volatile so same-seed snapshots match across thread counts.
  metrics_.enroll_gauge("runtime.threads", [this]() {
    return static_cast<std::int64_t>(runtime_->threads());
  });
  metrics_.mark_volatile("runtime.threads");
  enroll_loop_runtime_metrics(0);

  scan_broker_->set_metrics(&metrics_);
}

void Aorta::enroll_loop_runtime_metrics(int loop_index) {
  const aorta::util::LoopRuntimeStats& rs = runtime_->stats(loop_index);
  const std::string p = "runtime." + std::to_string(loop_index) + ".";
  metrics_.enroll_counter(p + "barrier_waits", &rs.barrier_waits);
  metrics_.enroll_counter(p + "posts_out", &rs.posts_out);
  metrics_.enroll_counter(p + "posts_in", &rs.posts_in);
  metrics_.enroll_counter(p + "posts_clamped", &rs.posts_clamped);
  metrics_.enroll_counter(p + "max_outbox_depth", &rs.max_outbox_depth);
  metrics_.enroll_gauge(p + "queue_depth", [this, loop_index]() {
    return static_cast<std::int64_t>(runtime_->loop(loop_index)->pending());
  });
  // Barrier stall time is wall-clock (how long this loop's thread parked
  // at the rendezvous): enrolled volatile so it never perturbs the
  // deterministic snapshot, visible via snapshot_json(_, true).
  auto hist = std::make_unique<obs::LatencyHistogram>(0.0, 50.0, 50);
  runtime_->set_stall_sink(loop_index,
                           [h = hist.get()](double ms) { h->add(ms); });
  metrics_.enroll_histogram(p + "barrier_stall_ms", hist.get());
  metrics_.mark_volatile(p + "barrier_stall_ms");
  stall_hists_.push_back(std::move(hist));
}

Aorta::~Aorta() { aorta::util::Logger::instance().attach_clock(nullptr); }

void Aorta::register_builtin_types() {
  (void)registry_->register_type(devices::camera_type_info());
  (void)registry_->register_type(devices::sensor_type_info());
  (void)registry_->register_type(devices::phone_type_info());
}

void Aorta::register_builtin_functions() {
  register_builtin_function_library(catalog_.get(), registry_.get());
}

void Aorta::register_builtin_actions() {
  register_builtin_action_library(catalog_.get(), registry_.get(), comm_.get());
}

Status Aorta::add_camera(const device::DeviceId& id, std::string ip,
                         devices::CameraPose pose, double range_m) {
  return registry_->add(std::make_unique<devices::PtzCamera>(
      id, std::move(ip), pose, range_m));
}

Status Aorta::add_mote(const device::DeviceId& id, device::Location loc,
                       int hops) {
  AORTA_RETURN_IF_ERROR(
      registry_->add(std::make_unique<devices::Mica2Mote>(id, loc, hops)));
  // Deeper motes ride a slower, lossier multi-hop path.
  return network_->set_link(id, devices::Mica2Mote::link_for_hops(hops));
}

Status Aorta::add_phone(const device::DeviceId& id, std::string phone_no,
                        device::Location loc) {
  return registry_->add(
      std::make_unique<devices::MmsPhone>(id, std::move(phone_no), loc));
}

Status Aorta::remove_device(const device::DeviceId& id) {
  return registry_->remove(id);
}

devices::PtzCamera* Aorta::camera(const device::DeviceId& id) {
  return dynamic_cast<devices::PtzCamera*>(registry_->find(id));
}
devices::Mica2Mote* Aorta::mote(const device::DeviceId& id) {
  return dynamic_cast<devices::Mica2Mote*>(registry_->find(id));
}
devices::MmsPhone* Aorta::phone(const device::DeviceId& id) {
  return dynamic_cast<devices::MmsPhone*>(registry_->find(id));
}

void Aorta::add_virtual_file(const std::string& path, std::string content) {
  virtual_files_[path] = std::move(content);
}

std::map<device::DeviceTypeId, std::string> Aorta::export_device_types() const {
  std::map<device::DeviceTypeId, std::string> out;
  for (const auto& type_id : registry_->type_ids()) {
    const device::DeviceTypeInfo* info = registry_->type_info(type_id);
    if (info != nullptr) out[type_id] = device::device_type_to_xml(*info);
  }
  return out;
}

Status Aorta::register_type_from_xml(const std::string& xml) {
  auto info = device::device_type_from_xml(xml);
  if (!info.is_ok()) return info.status();
  return registry_->register_type(std::move(info).value());
}

Status Aorta::register_action_impl(const std::string& name,
                                   query::ActionImpl impl) {
  return catalog_->bind_action_impl(name, std::move(impl));
}

Result<ExecResult> Aorta::exec(const std::string& sql) {
  std::optional<Result<ExecResult>> outcome;
  exec_async(sql, ExecOptions{},
             [&outcome](Result<ExecResult> r) { outcome = std::move(r); });
  if (!outcome.has_value()) {
    // One-shot SELECT: sensory acquisition needs simulated time to pass;
    // bounded by the worst per-type probe timeout.
    const Duration kSelectDeadline = Duration::seconds(30.0);
    aorta::util::TimePoint deadline = loop_->now() + kSelectDeadline;
    while (!outcome.has_value() && loop_->now() < deadline &&
           runtime_->pending() > 0) {
      if (runtime_->running()) {
        // Re-entrant exec from inside an event: only the control loop can
        // be advanced from here; worker loops keep running to the barrier.
        loop_->run_until(loop_->now() + Duration::millis(10));
      } else {
        runtime_->run_until(loop_->now() + Duration::millis(10));
      }
    }
    if (!outcome.has_value()) {
      return Result<ExecResult>(
          aorta::util::timeout_error("SELECT did not complete"));
    }
  }
  return std::move(*outcome);
}

void Aorta::exec_async(const std::string& sql, ExecOptions options,
                       std::function<void(Result<ExecResult>)> done) {
  auto stmt = query::parse(sql);
  AORTA_TRACE_INSTANT(&tracer_, obs::SpanCat::kParse, "parse", loop_->now(),
                      stmt.is_ok() ? sql : "error: " + sql);
  if (!stmt.is_ok()) {
    done(Result<ExecResult>(stmt.status()));
    return;
  }
  query::Statement& s = stmt.value();

  if (s.kind == query::Statement::Kind::kSelect) {
    executor_->run_select(
        s.select, [done = std::move(done)](
                      Result<std::vector<query::Row>> outcome) {
          if (!outcome.is_ok()) {
            done(Result<ExecResult>(outcome.status()));
            return;
          }
          ExecResult result;
          result.rows = std::move(outcome).value();
          result.message =
              aorta::util::str_format("%zu row(s)", result.rows.size());
          done(std::move(result));
        });
    return;
  }
  done(exec_ddl(s, sql, options));
}

Result<ExecResult> Aorta::exec_ddl(query::Statement& s, const std::string& sql,
                                   const ExecOptions& options) {
  switch (s.kind) {
    case query::Statement::Kind::kCreateAction: {
      const auto& ca = s.create_action;
      // Load the action profile from the virtual file store.
      auto file = virtual_files_.find(ca.profile_path);
      if (file == virtual_files_.end()) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "profile file not registered: " + ca.profile_path +
            " (use add_virtual_file)"));
      }
      auto profile = device::ActionProfile::from_xml(file->second);
      if (!profile.is_ok()) return Result<ExecResult>(profile.status());

      query::ActionDef def;
      def.name = ca.name;
      for (const auto& p : ca.params) {
        device::AttrType type = device::AttrType::kString;
        std::string lowered = aorta::util::to_lower(p.type_name);
        if (lowered == "double" || lowered == "float") {
          type = device::AttrType::kDouble;
        } else if (lowered == "int" || lowered == "integer") {
          type = device::AttrType::kInt;
        } else if (lowered == "location") {
          type = device::AttrType::kLocation;
        }
        def.params.push_back(query::ActionParam{type, p.name});
      }
      def.device_type = profile.value().device_type();
      def.library_path = ca.library_path;

      const device::DeviceTypeInfo* info =
          registry_->type_info(def.device_type);
      if (info == nullptr) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "action profile references unknown device type: " +
            def.device_type));
      }
      def.cost_model = query::ProfileCostModel::from_profile(profile.value(),
                                                             info->op_costs);
      // Device binding defaults: first parameter against the conventional
      // identity attribute of the device type.
      def.binding_param = 0;
      def.binding_attr = def.device_type == "phone"
                             ? "phone_no"
                             : (def.device_type == "camera" ? "ip" : "id");
      def.profile = std::move(profile).value();
      AORTA_RETURN_IF_ERROR_EXEC(catalog_->register_action(std::move(def)));
      return ExecResult{"action " + ca.name + " registered (bind an "
                        "implementation with register_action_impl)",
                        {}};
    }

    case query::Statement::Kind::kCreateAq: {
      std::string name = options.name_prefix + s.create_aq.name;
      query::ContinuousQueryExecutor::AqHooks hooks;
      hooks.owner = options.owner;
      hooks.on_row = options.on_row;
      AORTA_RETURN_IF_ERROR_EXEC(executor_->register_aq(
          name, s.create_aq.epoch_s, s.create_aq.select, sql,
          std::move(hooks)));
      return ExecResult{"continuous query " + name + " registered", {}};
    }

    case query::Statement::Kind::kDropAq: {
      std::string name = options.name_prefix + s.drop_aq.name;
      AORTA_RETURN_IF_ERROR_EXEC(executor_->drop_aq(name));
      return ExecResult{"continuous query " + name + " dropped", {}};
    }

    case query::Statement::Kind::kExplain: {
      auto compiled = query::compile(s.select, *catalog_, *registry_);
      if (!compiled.is_ok()) return Result<ExecResult>(compiled.status());
      return ExecResult{compiled.value().describe(), {}};
    }

    case query::Statement::Kind::kShow: {
      ExecResult result;
      using Target = query::ShowStmt::Target;
      switch (s.show.target) {
        case Target::kQueries:
          for (const std::string& name : executor_->aq_names()) {
            const query::QueryStats* qs = executor_->query_stats(name);
            query::QueryActionStats as = executor_->action_stats(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("events",
                             static_cast<std::int64_t>(qs ? qs->events : 0));
            row.emplace_back("usable", static_cast<std::int64_t>(as.usable));
            row.emplace_back("bad", static_cast<std::int64_t>(as.total_bad()));
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kActions:
          for (const std::string& name : catalog_->action_names()) {
            const query::ActionDef* def = catalog_->find_action(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("device_type", def->device_type);
            row.emplace_back("params",
                             static_cast<std::int64_t>(def->params.size()));
            row.emplace_back("library", def->library_path);
            row.emplace_back("bound", def->impl ? true : false);
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kDevices:
          for (const auto& type_id : registry_->type_ids()) {
            for (const auto& id : registry_->ids_of_type(type_id)) {
              const device::Device* dev = registry_->find(id);
              query::Row row;
              row.emplace_back("id", id);
              row.emplace_back("type", type_id);
              row.emplace_back("loc", dev->location());
              row.emplace_back("online", dev->online());
              result.rows.push_back(std::move(row));
            }
          }
          break;
      }
      result.message = aorta::util::str_format("%zu row(s)", result.rows.size());
      return result;
    }

    case query::Statement::Kind::kSelect:
      break;  // handled asynchronously in exec_async
  }
  return Result<ExecResult>(aorta::util::internal_error("bad statement kind"));
}

void Aorta::run_for(Duration span) {
  if (runtime_->running()) {
    // Called from inside an event (a test hook, say): the group is already
    // being driven, so only the calling loop may advance.
    loop_->run_for(span);
    return;
  }
  runtime_->run_for(span);
}

Status Aorta::apply_fault_plan(const util::FaultPlan& plan) {
  return schedule_fault_plan(
      plan, loop_, network_.get(),
      [this](const device::DeviceId& id) { return registry_->find(id); });
}

Status schedule_fault_plan(
    const util::FaultPlan& plan, aorta::util::EventLoop* loop,
    net::Network* network,
    std::function<device::Device*(const device::DeviceId&)> find_device) {
  // Validate every target up front so a typo in a plan file fails the
  // whole apply instead of silently no-opping one event mid-run.
  for (const util::FaultEvent& e : plan.events) {
    if (e.shard >= 0) {
      return aorta::util::invalid_argument_error(
          "fault plan targets shard " + std::to_string(e.shard) +
          " but this system has no sharded plane (run with num_shards > 0)");
    }
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
      case util::FaultEvent::Kind::kRevive:
      case util::FaultEvent::Kind::kGlitchSpike:
        if (find_device(e.target) == nullptr) {
          return aorta::util::not_found_error(
              "fault plan targets unknown device: " + e.target);
        }
        break;
      case util::FaultEvent::Kind::kPartition:
      case util::FaultEvent::Kind::kHeal:
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike:
        if (!network->attached(e.target)) {
          return aorta::util::not_found_error(
              "fault plan targets unattached node: " + e.target);
        }
        break;
    }
  }

  for (const util::FaultEvent& e : plan.events) {
    schedule_fault_event(e, loop, network, find_device);
  }
  return Status::ok();
}

void schedule_fault_event(
    const util::FaultEvent& e, aorta::util::EventLoop* loop,
    net::Network* network,
    std::function<device::Device*(const device::DeviceId&)> find_device) {
  loop->schedule(Duration::seconds(e.at_s), [loop, network, find_device,
                                             e]() {
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
      case util::FaultEvent::Kind::kRevive: {
        device::Device* dev = find_device(e.target);
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
        device::Device* dev = find_device(e.target);
        if (dev == nullptr) break;
        double restored = dev->reliability().glitch_prob;
        dev->reliability().glitch_prob = e.prob;
        loop->schedule(Duration::seconds(e.for_s), [find_device, e,
                                                    restored]() {
          device::Device* d = find_device(e.target);
          if (d != nullptr) d->reliability().glitch_prob = restored;
        });
        break;
      }
    }
    AORTA_LOG(kInfo, "fault")
        << util::fault_event_kind_name(e.kind) << " " << e.target;
  });
}

const query::QueryStats* Aorta::query_stats(const std::string& name) const {
  return executor_->query_stats(name);
}

query::QueryActionStats Aorta::action_stats(const std::string& name) const {
  return executor_->action_stats(name);
}

SystemStats Aorta::stats() const {
  return SystemStats{locks_->stats(), prober_->stats(), network_->stats(),
                     comm_->engine().rpc().stats()};
}

}  // namespace aorta::core
