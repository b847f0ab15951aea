// Device health view: the narrow interface lower layers use to consult
// and feed device health supervision.
//
// The concrete state machine (Healthy -> Suspect -> Quarantined, EWMA
// success tracking, capped-backoff re-probes) lives in core/health.h; the
// layers that produce and consume health signals — the comm modules, the
// ScanBroker's sweeps, the action operators' candidate lists — sit below
// the core library, so they depend only on this interface and receive a
// pointer at wiring time (nullptr = supervision off).
#pragma once

#include <cstdint>

#include "device/types.h"

namespace aorta::device {

// What kind of interaction with the device produced an outcome.
enum class HealthOutcomeKind {
  kRead,    // a sensory read_attr round trip
  kProbe,   // an availability probe
  kAction,  // an action executed on the device
};

class HealthView {
 public:
  virtual ~HealthView() = default;

  // True if the device is quarantined: broker sweeps skip it (serving
  // last-known-good values instead) and action scheduling removes it from
  // candidate lists until a backoff re-probe succeeds.
  virtual bool is_quarantined(const DeviceId& id) const = 0;

  // Moves whenever a device enters or leaves quarantine, so a consumer
  // may keep is_quarantined answers until the version moves again.
  virtual std::uint64_t version() const = 0;

  // Report the outcome of one interaction with the device.
  virtual void report(const DeviceId& id, HealthOutcomeKind kind, bool ok) = 0;
};

}  // namespace aorta::device
