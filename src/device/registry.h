// Device registry: the communication layer's dynamic, logical view of the
// device network.
//
// Manages device lifecycle (join / leave / temporary departure), caches
// static non-sensory attributes, and groups devices by type so the query
// engine can treat "each type of devices [as] a virtual relational table"
// (Section 3.2). Device profiles (catalog + atomic op cost table) are
// registered per type, as maintained by the system administrator in the
// paper (Section 3.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/device.h"
#include "device/profile.h"
#include "net/network.h"
#include "util/status.h"

namespace aorta::device {

// Everything the system knows about a device type.
struct DeviceTypeInfo {
  DeviceTypeId type_id;
  DeviceCatalog catalog;
  AtomicOpCostTable op_costs;
  net::LinkModel link;                      // default link for this type
  aorta::util::Duration probe_timeout =     // per-type TIMEOUT (Section 4)
      aorta::util::Duration::millis(2000);
};

class DeviceRegistry {
 public:
  DeviceRegistry(net::Network* network, aorta::util::EventLoop* loop,
                 aorta::util::Rng rng)
      : network_(network), loop_(loop), rng_(std::move(rng)) {}

  // ---- type management -------------------------------------------------
  aorta::util::Status register_type(DeviceTypeInfo info);
  const DeviceTypeInfo* type_info(const DeviceTypeId& type_id) const;
  std::vector<DeviceTypeId> type_ids() const;

  // ---- device lifecycle ------------------------------------------------

  // Add a device: binds it to the network/loop with its type's link model
  // and caches its static attributes. The type must be registered.
  aorta::util::Status add(std::unique_ptr<Device> device);

  // Remove a device from the network permanently (device leaves).
  aorta::util::Status remove(const DeviceId& id);

  // ---- lookup ------------------------------------------------------------
  Device* find(const DeviceId& id);
  const Device* find(const DeviceId& id) const;
  std::vector<Device*> devices_of_type(const DeviceTypeId& type_id);
  std::vector<DeviceId> ids_of_type(const DeviceTypeId& type_id) const;
  std::size_t size() const { return devices_.size(); }

  // Bumped by every add and remove, the only writers of membership and of
  // the static cache: a consumer that derives per-type tables from the
  // registry rebuilds them when this moves.
  std::uint64_t version() const { return version_; }
  // Bumped by every type registration (the virtual tables compile reads).
  std::uint64_t types_version() const { return types_version_; }

  // Cached non-sensory attributes ("non-sensory data may be stored
  // statically", Section 3.2).
  const std::map<std::string, Value>* static_attrs(const DeviceId& id) const;

  net::Network& network() { return *network_; }
  aorta::util::EventLoop& loop() { return *loop_; }

 private:
  net::Network* network_;
  aorta::util::EventLoop* loop_;
  aorta::util::Rng rng_;
  std::map<DeviceTypeId, DeviceTypeInfo> types_;
  std::map<DeviceId, std::unique_ptr<Device>> devices_;
  std::map<DeviceId, std::map<std::string, Value>> static_attr_cache_;
  std::uint64_t version_ = 0;
  std::uint64_t types_version_ = 0;
};

}  // namespace aorta::device
