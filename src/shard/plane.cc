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
  return worker(shard_of_device(id))
      .add_camera(id, std::move(ip), pose, range_m);
}

Status Plane::add_mote(const device::DeviceId& id, device::Location loc,
                       int hops) {
  return worker(shard_of_device(id)).add_mote(id, loc, hops);
}

Status Plane::add_phone(const device::DeviceId& id, std::string phone_no,
                        device::Location loc) {
  return worker(shard_of_device(id)).add_phone(id, std::move(phone_no), loc);
}

devices::Mica2Mote* Plane::mote(const device::DeviceId& id) {
  return worker(shard_of_device(id)).mote(id);
}

devices::PtzCamera* Plane::camera(const device::DeviceId& id) {
  return worker(shard_of_device(id)).camera(id);
}

Status Plane::apply_fault_plan(const util::FaultPlan& plan) {
  // Rewrite shard-targeted events into node-level events on the worker's
  // network endpoint before handing the plan to the core scheduler.
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

  // Under the parallel runtime each event must fire on the loop that owns
  // its target: partition sets and link models live in the target node's
  // home segment, and device state may only be touched from its home loop.
  auto find_device = [this](const device::DeviceId& id) -> device::Device* {
    for (auto& w : workers_) {
      device::Device* d = w->registry().find(id);
      if (d != nullptr) return d;
    }
    return host_->registry().find(id);
  };
  // Resolve each event's home (worker segment or the host's control
  // segment), validating every target up front like the core scheduler.
  struct Placement {
    aorta::util::EventLoop* loop;
    net::Network* network;
  };
  std::vector<Placement> placements;
  placements.reserve(rewritten.events.size());
  for (const util::FaultEvent& e : rewritten.events) {
    Placement p{&host_->loop(), &host_->network()};
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
      case util::FaultEvent::Kind::kRevive:
      case util::FaultEvent::Kind::kGlitchSpike: {
        bool found = false;
        for (auto& w : workers_) {
          if (w->registry().find(e.target) != nullptr) {
            p = Placement{&w->loop(), &w->network()};
            found = true;
            break;
          }
        }
        if (!found && host_->registry().find(e.target) == nullptr) {
          return aorta::util::not_found_error(
              "fault plan targets unknown device: " + e.target);
        }
        break;
      }
      case util::FaultEvent::Kind::kPartition:
      case util::FaultEvent::Kind::kHeal:
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike: {
        bool found = false;
        for (auto& w : workers_) {
          if (w->network().attached(e.target)) {
            p = Placement{&w->loop(), &w->network()};
            found = true;
            break;
          }
        }
        if (!found && !host_->network().attached(e.target)) {
          return aorta::util::not_found_error(
              "fault plan targets unattached node: " + e.target);
        }
        break;
      }
    }
    placements.push_back(p);
  }
  for (std::size_t i = 0; i < rewritten.events.size(); ++i) {
    core::schedule_fault_event(rewritten.events[i], placements[i].loop,
                               placements[i].network, find_device);
  }
  return aorta::util::Status::ok();
}

}  // namespace aorta::shard
