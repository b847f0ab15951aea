// Plane: assembly of the sharded czar/worker query plane on a host system.
//
// Owns N shard::Worker engines, each an engine slice on its own runtime
// loop, plus the shard::Czar frontend on the host core::Aorta's control
// loop and network segment. Devices are hash-partitioned across the
// workers with the same FNV-1a function the czar's fragment planner uses
// (shard_of), so a fragment's device slice is exactly the worker's
// registry. The czar<->worker interconnect is the zero-loss
// backplane_link() — machine-room fabric, not a device radio.
//
// The host Aorta keeps its own (idle) host slice; the plane reuses its
// substrate: runtime, fabric, RNG forks, metrics registry, tracer list.
// server::QueryService routes sessions through plane->exec_async() when
// ServiceConfig::num_shards > 0.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "shard/czar.h"
#include "shard/worker.h"

namespace aorta::shard {

class Plane {
 public:
  struct Options {
    int num_shards = 1;
  };

  Plane(core::Aorta* host, Options options);
  ~Plane();

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  // ---- world building (hash-routed to the owning worker) ------------------
  int shard_of_device(const device::DeviceId& id) const {
    return shard_of(id, options_.num_shards);
  }
  aorta::util::Status add_camera(const device::DeviceId& id, std::string ip,
                                 devices::CameraPose pose,
                                 double range_m = 25.0);
  aorta::util::Status add_mote(const device::DeviceId& id,
                               device::Location loc, int hops = 1);
  aorta::util::Status add_phone(const device::DeviceId& id,
                                std::string phone_no, device::Location loc);
  devices::Mica2Mote* mote(const device::DeviceId& id);
  devices::PtzCamera* camera(const device::DeviceId& id);

  // ---- declarative interface ----------------------------------------------
  void exec_async(
      const std::string& sql, core::ExecOptions options,
      std::function<void(aorta::util::Result<core::ExecResult>)> done) {
    czar_->exec_async(sql, std::move(options), std::move(done));
  }
  void exec_async(
      query::Statement stmt, const std::string& sql, core::ExecOptions options,
      std::function<void(aorta::util::Result<core::ExecResult>)> done) {
    czar_->exec_async(std::move(stmt), sql, std::move(options),
                      std::move(done));
  }

  // Fault plans against the sharded plane: events carrying shard="<i>" are
  // rewritten to node-level events on that worker's endpoint (crash ->
  // partition, revive -> heal: a worker engine cannot power off, but it
  // can fall off the network). core::schedule_fault_plan then places every
  // event on the slice that holds its target, workers first, then the
  // host's.
  aorta::util::Status apply_fault_plan(const util::FaultPlan& plan);

  int num_shards() const { return options_.num_shards; }
  Worker& worker(int shard) { return *workers_[static_cast<std::size_t>(shard)]; }
  Czar& czar() { return *czar_; }

 private:
  core::Engine& owner(const device::DeviceId& id) {
    return worker(shard_of_device(id)).engine();
  }

  core::Aorta* host_;
  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Czar> czar_;
  // Plane-wide replay-buffer view under "net.reliable." (the czar enrolls
  // the dispatcher counters into the same section).
  obs::MetricsRegistry::Scoped metrics_;
};

}  // namespace aorta::shard
