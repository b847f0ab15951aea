// The query engine's catalog: registered actions, scalar functions and
// the virtual table schema of each device type.
//
// Actions are "Aorta system built-in or user-defined functions that
// operate devices" (Section 2.2). A user-defined action is registered via
// CREATE ACTION with a library path and an XML action profile; because
// this reproduction cannot dlopen 2005-era DLLs, implementations are bound
// programmatically through Aorta::register_action_impl() and the library
// path is retained as metadata — the declarative surface is unchanged.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/tuple.h"
#include "device/profile.h"
#include "device/registry.h"
#include "query/ast.h"
#include "query/expr_eval.h"
#include "sched/cost_model.h"
#include "sched/executor.h"

namespace aorta::query {

// Executes one instantiated action on one device. `args` are the evaluated
// action arguments in declaration order.
using ActionImpl = std::function<void(
    const device::DeviceId& device, const std::vector<device::Value>& args,
    std::function<void(aorta::util::Result<sched::ActionOutcome>)> done)>;

// Derives the cost-relevant request parameters from the evaluated action
// arguments (e.g. photo(): the target location into target_x/y/z). May be
// null for actions whose cost is status-independent.
using RequestParamsFn = std::function<aorta::util::Status(
    const std::vector<device::Value>& args, sched::ActionRequest* request)>;

struct ActionParam {
  device::AttrType type = device::AttrType::kString;
  std::string name;
};

struct ActionDef {
  std::string name;
  std::vector<ActionParam> params;
  device::DeviceTypeId device_type;  // the type of devices it operates

  // Which argument identifies/binds the executing device, and which static
  // device attribute it matches (photo(c.ip, ...) binds arg 0 to "ip").
  std::size_t binding_param = 0;
  std::string binding_attr = "id";

  device::ActionProfile profile;
  std::shared_ptr<const sched::CostModel> cost_model;
  ActionImpl impl;
  RequestParamsFn request_params;

  std::string library_path;  // metadata from CREATE ACTION
};

class Catalog {
 public:
  aorta::util::Status register_action(ActionDef action);
  const ActionDef* find_action(const std::string& name) const;
  std::vector<std::string> action_names() const;

  // Late-bind an implementation to an action registered via CREATE ACTION.
  aorta::util::Status bind_action_impl(const std::string& name, ActionImpl impl);

  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }

  // Bumped by every action and function registration: a plan compiled at
  // one version (and one DeviceRegistry::types_version()) is what
  // compile() still makes while both stay put.
  std::uint64_t version() const { return version_ + functions_.version(); }

  // The virtual table of a registered device type, built on first use and
  // then shared by every query compiled against this catalog: a type's
  // device catalog never changes once registered, so one immutable schema
  // serves them all. A catalog serves one registry and one event loop (an
  // engine slice owns one of each), which is what makes the lazy fill safe.
  const comm::Schema& table_schema(const device::DeviceTypeInfo& info) const;

 private:
  std::map<std::string, ActionDef> actions_;
  FunctionRegistry functions_;
  std::uint64_t version_ = 0;
  mutable std::map<device::DeviceTypeId, comm::Schema> tables_;
};

// Generic profile-driven cost model for user-defined actions: cost is the
// action profile estimated with default unit counts (status-independent),
// plus the request's base cost; execution changes no tracked status.
class ProfileCostModel : public sched::CostModel {
 public:
  ProfileCostModel(device::AtomicOpCostTable op_costs, double fixed_estimate_s)
      : op_costs_(std::move(op_costs)), fixed_estimate_s_(fixed_estimate_s) {}

  // Computes the profile estimate once at construction (no dynamic units).
  static std::shared_ptr<ProfileCostModel> from_profile(
      const device::ActionProfile& profile,
      const device::AtomicOpCostTable& op_costs);

  double cost_s(const sched::ActionRequest& request,
                const sched::DeviceStatus&) const override {
    return fixed_estimate_s_ + request.base_cost_s;
  }
  void apply(const sched::ActionRequest&, sched::DeviceStatus*) const override {}

 private:
  device::AtomicOpCostTable op_costs_;
  double fixed_estimate_s_;
};

}  // namespace aorta::query
