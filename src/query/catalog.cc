#include "query/catalog.h"

namespace aorta::query {

using aorta::util::Status;

Status Catalog::register_action(ActionDef action) {
  if (action.name.empty()) {
    return aorta::util::invalid_argument_error("action needs a name");
  }
  auto [it, inserted] = actions_.emplace(action.name, std::move(action));
  if (!inserted) {
    return aorta::util::already_exists_error("action already registered: " +
                                             it->first);
  }
  ++version_;
  return Status::ok();
}

const ActionDef* Catalog::find_action(const std::string& name) const {
  auto it = actions_.find(name);
  return it == actions_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::action_names() const {
  std::vector<std::string> out;
  for (const auto& [name, def] : actions_) out.push_back(name);
  return out;
}

Status Catalog::bind_action_impl(const std::string& name, ActionImpl impl) {
  auto it = actions_.find(name);
  if (it == actions_.end()) {
    return aorta::util::not_found_error("no such action: " + name);
  }
  it->second.impl = std::move(impl);
  return Status::ok();
}

const comm::Schema& Catalog::table_schema(
    const device::DeviceTypeInfo& info) const {
  auto it = tables_.find(info.type_id);
  if (it == tables_.end()) {
    it = tables_
             .emplace(info.type_id, comm::Schema::from_catalog(info.catalog))
             .first;
  }
  return it->second;
}

std::shared_ptr<ProfileCostModel> ProfileCostModel::from_profile(
    const device::ActionProfile& profile,
    const device::AtomicOpCostTable& op_costs) {
  double estimate = profile.estimate_cost_s(op_costs, nullptr);
  return std::make_shared<ProfileCostModel>(op_costs, estimate);
}

}  // namespace aorta::query
