// Device health supervision: per-device failure detection, quarantine with
// capped-backoff re-probes, and the hooks the rest of the stack uses to
// degrade gracefully instead of hammering dead devices.
//
// The paper premises the design on devices that are "intrinsically
// unreliable" (Section 4): lossy MICA2 radios, cameras that glitch under
// load. Without supervision every layer reacts to a crashed device the
// same way — time out, count the failure, and pay the full RPC cost again
// next epoch. The supervisor turns the failure stream the comm layer,
// ScanBroker and action operators already observe into a per-device state
// machine:
//
//   Healthy ──(consecutive failures >= suspect_after)──> Suspect
//   Suspect ──(consecutive failures >= quarantine_after
//              or EWMA success rate < ewma_quarantine)──> Quarantined
//   Suspect ──(one success)──> Healthy
//   Quarantined ──(backoff probe succeeds)──> Healthy
//
// While quarantined, a device receives no sweep or action traffic; the
// supervisor alone re-probes it on a capped exponential backoff schedule
// (backoff_base * 2^k, capped at backoff_cap). The ScanBroker serves
// last-known-good values for it (tagged degraded) and the action
// scheduler drops it from candidate lists.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "comm/comm_module.h"
#include "device/health.h"
#include "device/registry.h"
#include "util/event_loop.h"
#include "util/time.h"

namespace aorta::core {

struct HealthOptions {
  // Consecutive-failure thresholds for the two demotions.
  int suspect_after = 2;
  int quarantine_after = 4;
  // EWMA success-rate demotion: after at least `ewma_min_samples` reports,
  // a rate below `ewma_quarantine` quarantines even without a long
  // consecutive-failure run (catches devices that flap instead of dying).
  double ewma_alpha = 0.3;
  double ewma_quarantine = 0.15;
  int ewma_min_samples = 12;
  // Re-probe schedule while quarantined: backoff_base * 2^k, capped.
  aorta::util::Duration backoff_base = aorta::util::Duration::seconds(2.0);
  aorta::util::Duration backoff_cap = aorta::util::Duration::seconds(16.0);
};

enum class HealthState { kHealthy, kSuspect, kQuarantined };

std::string_view health_state_name(HealthState s);

// Per-device view exposed for stats and tests.
struct DeviceHealth {
  HealthState state = HealthState::kHealthy;
  int consecutive_failures = 0;
  // EWMA of the success indicator (1.0 = all recent reports succeeded).
  double ewma = 1.0;
  std::uint64_t samples = 0;
  // Backoff exponent for the next quarantine re-probe.
  int backoff_exponent = 0;
  aorta::util::TimePoint quarantined_at;
};

struct HealthStats {
  std::uint64_t reports_ok = 0;
  std::uint64_t reports_failed = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_failed = 0;
};

class HealthSupervisor : public device::HealthView {
 public:
  HealthSupervisor(device::DeviceRegistry* registry, comm::CommLayer* comm,
                   aorta::util::EventLoop* loop, HealthOptions options);
  ~HealthSupervisor() override;

  HealthSupervisor(const HealthSupervisor&) = delete;
  HealthSupervisor& operator=(const HealthSupervisor&) = delete;

  // device::HealthView --------------------------------------------------
  bool is_quarantined(const device::DeviceId& id) const override;
  std::uint64_t version() const override { return version_; }
  void report(const device::DeviceId& id, device::HealthOutcomeKind kind,
              bool ok) override;

  // ---------------------------------------------------------------------
  HealthState state(const device::DeviceId& id) const;
  const DeviceHealth* device_health(const device::DeviceId& id) const;
  std::size_t quarantined_count() const;
  const HealthStats& stats() const { return stats_; }

  // Invoked on every state transition (wired to the executor's trace so
  // quarantine/recovery shows up next to query events).
  using TransitionHook = std::function<void(
      const device::DeviceId& id, HealthState from, HealthState to)>;
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  const HealthOptions& options() const { return options_; }

 private:
  void transition(const device::DeviceId& id, DeviceHealth* h,
                  HealthState to);
  // Schedule the next quarantine re-probe for `id` at the current backoff.
  void schedule_probe(const device::DeviceId& id);
  void send_probe(const device::DeviceId& id);

  device::DeviceRegistry* registry_;
  comm::CommLayer* comm_;
  aorta::util::EventLoop* loop_;
  HealthOptions options_;
  std::map<device::DeviceId, DeviceHealth> devices_;
  std::map<device::DeviceId, aorta::util::EventId> probe_events_;
  HealthStats stats_;
  std::uint64_t version_ = 0;  // bumped by quarantine entries and exits
  TransitionHook hook_;
  // Guards probe callbacks that may fire after destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace aorta::core
