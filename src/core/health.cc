#include "core/health.h"

#include <algorithm>

#include "util/logging.h"

namespace aorta::core {

using aorta::util::Duration;

std::string_view health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kSuspect:
      return "suspect";
    case HealthState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

HealthSupervisor::HealthSupervisor(device::DeviceRegistry* registry,
                                   comm::CommLayer* comm,
                                   aorta::util::EventLoop* loop,
                                   HealthOptions options)
    : registry_(registry),
      comm_(comm),
      loop_(loop),
      options_(options),
      alive_(std::make_shared<bool>(true)) {}

HealthSupervisor::~HealthSupervisor() { *alive_ = false; }

bool HealthSupervisor::is_quarantined(const device::DeviceId& id) const {
  auto it = devices_.find(id);
  return it != devices_.end() && it->second.state == HealthState::kQuarantined;
}

HealthState HealthSupervisor::state(const device::DeviceId& id) const {
  auto it = devices_.find(id);
  return it == devices_.end() ? HealthState::kHealthy : it->second.state;
}

const DeviceHealth* HealthSupervisor::device_health(
    const device::DeviceId& id) const {
  auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : &it->second;
}

std::size_t HealthSupervisor::quarantined_count() const {
  std::size_t n = 0;
  for (const auto& [id, h] : devices_) {
    if (h.state == HealthState::kQuarantined) ++n;
  }
  return n;
}

void HealthSupervisor::report(const device::DeviceId& id,
                              device::HealthOutcomeKind kind, bool ok) {
  (void)kind;  // all outcome kinds feed the same state machine
  DeviceHealth& h = devices_[id];
  ++h.samples;
  h.ewma = options_.ewma_alpha * (ok ? 1.0 : 0.0) +
           (1.0 - options_.ewma_alpha) * h.ewma;
  if (ok) {
    ++stats_.reports_ok;
    h.consecutive_failures = 0;
    if (h.state != HealthState::kHealthy) {
      if (h.state == HealthState::kQuarantined) h.ewma = 1.0;
      transition(id, &h, HealthState::kHealthy);
    }
    return;
  }
  ++stats_.reports_failed;
  ++h.consecutive_failures;
  if (h.state == HealthState::kQuarantined) {
    // A failure while quarantined (usually one of our own backoff probes)
    // widens the next re-probe interval.
    h.backoff_exponent = std::min(h.backoff_exponent + 1, 30);
    return;
  }
  const bool quarantine =
      h.consecutive_failures >= options_.quarantine_after ||
      (h.samples >= static_cast<std::uint64_t>(options_.ewma_min_samples) &&
       h.ewma < options_.ewma_quarantine);
  if (quarantine) {
    h.quarantined_at = loop_->now();
    h.backoff_exponent = 0;
    transition(id, &h, HealthState::kQuarantined);
    schedule_probe(id);
  } else if (h.state == HealthState::kHealthy &&
             h.consecutive_failures >= options_.suspect_after) {
    transition(id, &h, HealthState::kSuspect);
  }
}

void HealthSupervisor::transition(const device::DeviceId& id, DeviceHealth* h,
                                  HealthState to) {
  const HealthState from = h->state;
  if (from == to) return;
  h->state = to;
  if (to == HealthState::kQuarantined || from == HealthState::kQuarantined) {
    ++version_;
  }
  if (to == HealthState::kQuarantined) {
    ++stats_.quarantines;
  } else if (from == HealthState::kQuarantined) {
    ++stats_.recoveries;
    h->backoff_exponent = 0;
    // A pending re-probe is moot once the device is back; cancel it so the
    // backoff schedule restarts fresh on the next quarantine.
    auto ev = probe_events_.find(id);
    if (ev != probe_events_.end()) {
      loop_->cancel(ev->second);
      probe_events_.erase(ev);
    }
  }
  AORTA_LOG(kInfo, "health")
      << id << ": " << health_state_name(from) << " -> "
      << health_state_name(to);
  if (hook_) hook_(id, from, to);
}

void HealthSupervisor::schedule_probe(const device::DeviceId& id) {
  auto it = devices_.find(id);
  if (it == devices_.end() || it->second.state != HealthState::kQuarantined) {
    return;
  }
  Duration delay = options_.backoff_base;
  for (int k = 0; k < it->second.backoff_exponent && delay < options_.backoff_cap;
       ++k) {
    delay = delay * 2.0;
  }
  if (delay > options_.backoff_cap) delay = options_.backoff_cap;
  std::shared_ptr<bool> alive = alive_;
  probe_events_[id] = loop_->schedule(delay, [this, id, alive] {
    if (!*alive) return;
    probe_events_.erase(id);
    send_probe(id);
  });
}

void HealthSupervisor::send_probe(const device::DeviceId& id) {
  if (state(id) != HealthState::kQuarantined) return;
  device::Device* dev = registry_->find(id);
  if (dev == nullptr) return;  // device left the network; stop probing
  comm::CommModule* module = comm_->module_for(dev->type_id());
  if (module == nullptr) return;
  ++stats_.probes_sent;
  std::shared_ptr<bool> alive = alive_;
  // The comm module reports the probe outcome (kProbe) before this
  // callback runs, so the state transition — recovery on success, wider
  // backoff on failure — has already happened here; all that is left is to
  // keep the re-probe cycle alive while the device stays quarantined.
  module->request(id, "probe", {}, Duration::zero(),
                  [this, id, alive](aorta::util::Result<net::Message> r) {
                    if (!*alive) return;
                    if (!r.is_ok()) ++stats_.probes_failed;
                    if (state(id) == HealthState::kQuarantined) {
                      schedule_probe(id);
                    }
                  });
}

}  // namespace aorta::core
