#include "shard/plane.h"

#include <algorithm>

namespace aorta::shard {

using aorta::util::Status;

Plane::Plane(core::Aorta* host, Options options)
    : host_(host), options_(std::move(options)) {
  workers_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(host, Worker::Options{.index = i}));
  }
  czar_ = std::make_unique<Czar>(
      host, Czar::Options{.num_shards = options_.num_shards});

  metrics_ = host->metrics().scoped("net.reliable.");
  metrics_.enroll_gauge("replay_depth", [this]() {
    std::int64_t depth = 0;
    for (const auto& w : workers_) {
      depth += static_cast<std::int64_t>(w->replay_depth());
    }
    return depth;
  });
  metrics_.enroll_gauge("replay_hwm", [this]() {
    std::int64_t hwm = 0;
    for (const auto& w : workers_) {
      hwm = std::max(hwm,
                     static_cast<std::int64_t>(w->stats().replay_hwm));
    }
    return hwm;
  });
}

Plane::~Plane() { metrics_.unenroll_all(); }

Status Plane::add_camera(const device::DeviceId& id, std::string ip,
                         devices::CameraPose pose, double range_m) {
  return owner(id).add_camera(id, std::move(ip), pose, range_m);
}

Status Plane::add_mote(const device::DeviceId& id, device::Location loc,
                       int hops) {
  return owner(id).add_mote(id, loc, hops);
}

Status Plane::add_phone(const device::DeviceId& id, std::string phone_no,
                        device::Location loc) {
  return owner(id).add_phone(id, std::move(phone_no), loc);
}

devices::Mica2Mote* Plane::mote(const device::DeviceId& id) {
  return owner(id).mote(id);
}

devices::PtzCamera* Plane::camera(const device::DeviceId& id) {
  return owner(id).camera(id);
}

Status Plane::apply_fault_plan(const util::FaultPlan& plan) {
  // Rewrite shard-targeted events into node-level events on the worker's
  // network endpoint; the core scheduler validates and places the rest.
  util::FaultPlan rewritten = plan;
  for (util::FaultEvent& e : rewritten.events) {
    if (e.shard < 0) continue;
    if (e.shard >= options_.num_shards) {
      return aorta::util::invalid_argument_error(
          "fault plan targets shard " + std::to_string(e.shard) +
          " but the plane has " + std::to_string(options_.num_shards) +
          " shard(s)");
    }
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
        e.kind = util::FaultEvent::Kind::kPartition;
        break;
      case util::FaultEvent::Kind::kRevive:
        e.kind = util::FaultEvent::Kind::kHeal;
        break;
      case util::FaultEvent::Kind::kPartition:
      case util::FaultEvent::Kind::kHeal:
        break;
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike:
        // Backplane spikes keep their kind; only the target is resolved
        // to the worker's network node (its backplane link).
        break;
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kGlitchSpike:
        // Unreachable: the parser rejects these spikes with a shard
        // attribute (loss/glitch stay device-targeted; use
        // device="shard-N" to storm a worker's backplane link).
        return aorta::util::invalid_argument_error(
            "spike events cannot target a shard");
    }
    e.target = workers_[static_cast<std::size_t>(e.shard)]->node_id();
    e.shard = -1;
  }
  std::vector<core::Engine*> slices;
  for (auto& w : workers_) slices.push_back(&w->engine());
  slices.push_back(&host_->engine());
  return core::schedule_fault_plan(rewritten, slices);
}

}  // namespace aorta::shard
