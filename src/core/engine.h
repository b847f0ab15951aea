// Engine: one vertical slice of the Section 2.1 stack on one runtime loop.
//
// A slice is the whole engine below the statement front end: its network
// segment (joined to the host's fabric) and span tracer, the device
// registry with the built-in types, comm layer, ScanBroker, lock manager,
// prober, optional HealthSupervisor, the catalog with the built-in
// functions and actions, and the started continuous-query executor.
// core::Aorta owns the host slice on the control loop; every
// shard::Worker owns one on a loop of its own (DESIGN.md §11-12), so the
// sharded plane runs exactly the unsharded stack once per shard.
//
// Metrics: every slice enrolls the same schema (network.*, sync.*,
// health.*, eval.*, scan_broker.*, broker.*) under its prefix — "" for
// the host slice, "shard.<i>." for worker i — plus runtime.<loop>.* for
// its loop.
//
// Destroying a slice leaves nothing of it on the host: its metrics,
// runtime.<loop>.* included, are withdrawn, its tracer leaves the host's
// export list and its loop is retired, so the loop's pending events and
// any later cross-loop post to it are dropped unrun and the next slice
// built reuses the loop's slot.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/comm_module.h"
#include "core/health.h"
#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "sync/lock_manager.h"
#include "sync/prober.h"
#include "util/fault_plan.h"

namespace aorta::core {

class Aorta;
struct Config;

class Engine {
 public:
  // `shard` < 0 builds the host slice on the control loop (loop 0) with
  // its metrics at the top level; shard i gets a new runtime loop and its
  // metrics under "shard.<i>.". `node` is the comm layer's endpoint id.
  // The engine knobs come from the host's Config.
  Engine(Aorta& host, int shard, net::NodeId node);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- world building ----------------------------------------------------
  aorta::util::Status add_camera(const device::DeviceId& id, std::string ip,
                                 devices::CameraPose pose, double range_m);
  // `hops` = depth in the multi-hop radio tree; deeper motes get slower,
  // lossier links and higher action costs (Section 2.3).
  aorta::util::Status add_mote(const device::DeviceId& id,
                               device::Location loc, int hops);
  aorta::util::Status add_phone(const device::DeviceId& id,
                                std::string phone_no, device::Location loc);

  // Typed access to simulated devices (to script signals, flip power, ...).
  devices::PtzCamera* camera(const device::DeviceId& id);
  devices::Mica2Mote* mote(const device::DeviceId& id);
  devices::MmsPhone* phone(const device::DeviceId& id);

  // ---- the slice's components --------------------------------------------
  int loop_index() const { return loop_index_; }
  aorta::util::EventLoop& loop() { return *loop_; }
  net::Network& network() { return network_; }
  device::DeviceRegistry& registry() { return registry_; }
  comm::CommLayer& comm() { return comm_; }
  comm::ScanBroker& scan_broker() { return scan_broker_; }
  sync::LockManager& locks() { return locks_; }
  sync::Prober& prober() { return prober_; }
  // nullptr when Config::health_supervision is off.
  HealthSupervisor* health() { return health_.get(); }
  query::Catalog& catalog() { return catalog_; }
  query::ContinuousQueryExecutor& executor() { return executor_; }
  obs::Tracer& tracer() { return tracer_; }
  // The slice's metric scope (its prefix on the host registry); owners
  // enroll their own keys here, and the slice withdraws them all when it
  // is destroyed.
  obs::MetricsRegistry::Scoped& metrics() { return metrics_; }

 private:
  void enroll_metrics();
  // runtime.<loop>.*: barrier waits, cross-post counters, queue depth, and
  // a volatile wall-clock barrier stall histogram (excluded from the
  // deterministic snapshots).
  void enroll_runtime_metrics();

  Aorta& host_;
  const Config& config_;
  obs::MetricsRegistry::Scoped metrics_;
  // Declared before the components so every tracer pointer they hold
  // stays valid until they are gone.
  obs::Tracer tracer_;
  // The host slice's stream is seeded from Config::seed; each worker
  // slice's is forked off the host's, in construction order.
  aorta::util::Rng rng_;
  int loop_index_;
  aorta::util::EventLoop* loop_;
  obs::MetricsRegistry::Scoped runtime_metrics_;
  obs::LatencyHistogram stall_hist_{0.0, 50.0, 50};
  // Construction order is the RNG fork order (segment, registry,
  // executor); destruction runs executor first (it holds broker
  // subscriptions) and the segment last.
  net::Network network_;
  device::DeviceRegistry registry_;
  comm::CommLayer comm_;
  comm::ScanBroker scan_broker_;
  sync::LockManager locks_;
  sync::Prober prober_;
  std::unique_ptr<HealthSupervisor> health_;
  query::Catalog catalog_;
  query::ContinuousQueryExecutor executor_;
};

// Schedule a fault plan's events relative to the current simulated time,
// each on the first slice of `slices` whose registry holds its device or
// whose segment attaches its node, so fault state (partition sets, link
// models, device power) is only ever touched from its home loop. Every
// target is validated up front: an unknown device or unattached node
// fails the whole plan with kNotFound and schedules nothing. Events
// carrying a shard index are rejected; shard::Plane rewrites them to
// node-level events first.
aorta::util::Status schedule_fault_plan(const util::FaultPlan& plan,
                                        const std::vector<Engine*>& slices);

}  // namespace aorta::core
