#include "device/registry.h"

#include "util/logging.h"

namespace aorta::device {

using aorta::util::Status;

Status DeviceRegistry::register_type(DeviceTypeInfo info) {
  if (info.type_id.empty()) {
    return aorta::util::invalid_argument_error("empty device type id");
  }
  auto [it, inserted] = types_.emplace(info.type_id, std::move(info));
  (void)it;
  if (!inserted) {
    return aorta::util::already_exists_error("device type already registered");
  }
  ++types_version_;
  return Status::ok();
}

const DeviceTypeInfo* DeviceRegistry::type_info(const DeviceTypeId& type_id) const {
  auto it = types_.find(type_id);
  return it == types_.end() ? nullptr : &it->second;
}

std::vector<DeviceTypeId> DeviceRegistry::type_ids() const {
  std::vector<DeviceTypeId> out;
  out.reserve(types_.size());
  for (const auto& [id, info] : types_) out.push_back(id);
  return out;
}

Status DeviceRegistry::add(std::unique_ptr<Device> device) {
  if (device == nullptr) {
    return aorta::util::invalid_argument_error("null device");
  }
  const DeviceTypeInfo* info = type_info(device->type_id());
  if (info == nullptr) {
    return aorta::util::not_found_error("unregistered device type: " +
                                        device->type_id());
  }
  const DeviceId id = device->id();
  if (devices_.count(id) > 0) {
    return aorta::util::already_exists_error("device already added: " + id);
  }

  device->bind(network_, loop_, rng_.fork());
  Status attach = network_->attach(id, device.get(), info->link);
  if (!attach.is_ok()) return attach;

  static_attr_cache_[id] = device->static_attrs();
  devices_.emplace(id, std::move(device));
  ++version_;
  AORTA_LOG(kInfo, "registry") << "device joined: " << id;
  return Status::ok();
}

Status DeviceRegistry::remove(const DeviceId& id) {
  auto it = devices_.find(id);
  if (it == devices_.end()) {
    return aorta::util::not_found_error("device not found: " + id);
  }
  (void)network_->detach(id);
  static_attr_cache_.erase(id);
  devices_.erase(it);
  ++version_;
  AORTA_LOG(kInfo, "registry") << "device left: " << id;
  return Status::ok();
}

Device* DeviceRegistry::find(const DeviceId& id) {
  auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.get();
}

const Device* DeviceRegistry::find(const DeviceId& id) const {
  auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.get();
}

std::vector<Device*> DeviceRegistry::devices_of_type(const DeviceTypeId& type_id) {
  std::vector<Device*> out;
  for (auto& [id, dev] : devices_) {
    if (dev->type_id() == type_id) out.push_back(dev.get());
  }
  return out;
}

std::vector<DeviceId> DeviceRegistry::ids_of_type(const DeviceTypeId& type_id) const {
  std::vector<DeviceId> out;
  for (const auto& [id, dev] : devices_) {
    if (dev->type_id() == type_id) out.push_back(id);
  }
  return out;
}

const std::map<std::string, Value>* DeviceRegistry::static_attrs(
    const DeviceId& id) const {
  auto it = static_attr_cache_.find(id);
  return it == static_attr_cache_.end() ? nullptr : &it->second;
}

}  // namespace aorta::device
