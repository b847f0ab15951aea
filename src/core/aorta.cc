#include "core/aorta.h"

#include <optional>
#include <thread>

#include "device/profile_io.h"
#include "util/logging.h"
#include "util/strings.h"

// Propagate a Status failure out of exec() as a Result<ExecResult>.
#define AORTA_RETURN_IF_ERROR_EXEC(expr)                            \
  do {                                                              \
    ::aorta::util::Status _s = (expr);                              \
    if (!_s.is_ok()) return ::aorta::util::Result<ExecResult>(_s);  \
  } while (false)

namespace aorta::core {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;

Aorta::Aorta(Config config) : config_(config) {
  int threads = config_.runtime_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  runtime_.set_threads(threads);
  aorta::util::Logger::instance().attach_clock(runtime_.clock(0));
  metrics_.enroll_gauge("runtime.loops", [this]() {
    return static_cast<std::int64_t>(runtime_.size());
  });
  metrics_.enroll_gauge("runtime.windows", [this]() {
    return static_cast<std::int64_t>(runtime_.windows());
  });
  // Thread count is an execution-environment property, not virtual state:
  // volatile so same-seed snapshots match across thread counts.
  metrics_.enroll_gauge("runtime.threads", [this]() {
    return static_cast<std::int64_t>(runtime_.threads());
  });
  metrics_.mark_volatile("runtime.threads");
  host_ = std::make_unique<Engine>(*this, -1, comm::EngineNode::kNodeId);
}

Aorta::~Aorta() { aorta::util::Logger::instance().attach_clock(nullptr); }

void Aorta::add_virtual_file(const std::string& path, std::string content) {
  virtual_files_[path] = std::move(content);
}

std::map<device::DeviceTypeId, std::string> Aorta::export_device_types() const {
  std::map<device::DeviceTypeId, std::string> out;
  for (const auto& type_id : host_->registry().type_ids()) {
    const device::DeviceTypeInfo* info = host_->registry().type_info(type_id);
    if (info != nullptr) out[type_id] = device::device_type_to_xml(*info);
  }
  return out;
}

Status Aorta::register_type_from_xml(const std::string& xml) {
  auto info = device::device_type_from_xml(xml);
  if (!info.is_ok()) return info.status();
  return host_->registry().register_type(std::move(info).value());
}

Status Aorta::register_action_impl(const std::string& name,
                                   query::ActionImpl impl) {
  return host_->catalog().bind_action_impl(name, std::move(impl));
}

Result<ExecResult> Aorta::exec(const std::string& sql) {
  std::optional<Result<ExecResult>> outcome;
  exec_async(sql, ExecOptions{},
             [&outcome](Result<ExecResult> r) { outcome = std::move(r); });
  if (!outcome.has_value()) {
    // One-shot SELECT: sensory acquisition needs simulated time to pass;
    // bounded by the worst per-type probe timeout.
    const Duration kSelectDeadline = Duration::seconds(30.0);
    aorta::util::TimePoint deadline = host_->loop().now() + kSelectDeadline;
    while (!outcome.has_value() && host_->loop().now() < deadline &&
           runtime_.pending() > 0) {
      if (runtime_.running()) {
        // Re-entrant exec from inside an event: only the control loop can
        // be advanced from here; worker loops keep running to the barrier.
        host_->loop().run_until(host_->loop().now() + Duration::millis(10));
      } else {
        runtime_.run_until(host_->loop().now() + Duration::millis(10));
      }
    }
    if (!outcome.has_value()) {
      return Result<ExecResult>(
          aorta::util::timeout_error("SELECT did not complete"));
    }
  }
  return std::move(*outcome);
}

void Aorta::exec_async(const std::string& sql, ExecOptions options,
                       std::function<void(Result<ExecResult>)> done) {
  auto stmt = query::parse(sql);
  if (!stmt.is_ok()) {
    AORTA_TRACE_INSTANT(&host_->tracer(), obs::SpanCat::kParse, "parse",
                        host_->loop().now(), "error: " + sql);
    done(Result<ExecResult>(stmt.status()));
    return;
  }
  exec_async(std::move(stmt).value(), sql, std::move(options),
             std::move(done));
}

void Aorta::exec_async(query::Statement s, const std::string& sql,
                       ExecOptions options,
                       std::function<void(Result<ExecResult>)> done) {
  AORTA_TRACE_INSTANT(&host_->tracer(), obs::SpanCat::kParse, "parse",
                      host_->loop().now(), sql);
  if (s.kind == query::Statement::Kind::kSelect) {
    host_->executor().run_select(
        s.select, [done = std::move(done)](
                      Result<std::vector<query::Row>> outcome) {
          if (!outcome.is_ok()) {
            done(Result<ExecResult>(outcome.status()));
            return;
          }
          ExecResult result;
          result.rows = std::move(outcome).value();
          result.message =
              aorta::util::str_format("%zu row(s)", result.rows.size());
          done(std::move(result));
        });
    return;
  }
  done(exec_ddl(s, options));
}

Result<ExecResult> Aorta::exec_ddl(query::Statement& s,
                                   const ExecOptions& options) {
  switch (s.kind) {
    case query::Statement::Kind::kCreateAction: {
      const auto& ca = s.create_action;
      // Load the action profile from the virtual file store.
      auto file = virtual_files_.find(ca.profile_path);
      if (file == virtual_files_.end()) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "profile file not registered: " + ca.profile_path +
            " (use add_virtual_file)"));
      }
      auto profile = device::ActionProfile::from_xml(file->second);
      if (!profile.is_ok()) return Result<ExecResult>(profile.status());

      query::ActionDef def;
      def.name = ca.name;
      for (const auto& p : ca.params) {
        device::AttrType type = device::AttrType::kString;
        std::string lowered = aorta::util::to_lower(p.type_name);
        if (lowered == "double" || lowered == "float") {
          type = device::AttrType::kDouble;
        } else if (lowered == "int" || lowered == "integer") {
          type = device::AttrType::kInt;
        } else if (lowered == "location") {
          type = device::AttrType::kLocation;
        }
        def.params.push_back(query::ActionParam{type, p.name});
      }
      def.device_type = profile.value().device_type();
      def.library_path = ca.library_path;

      const device::DeviceTypeInfo* info =
          host_->registry().type_info(def.device_type);
      if (info == nullptr) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "action profile references unknown device type: " +
            def.device_type));
      }
      def.cost_model = query::ProfileCostModel::from_profile(profile.value(),
                                                             info->op_costs);
      // Device binding defaults: first parameter against the conventional
      // identity attribute of the device type.
      def.binding_param = 0;
      def.binding_attr = def.device_type == "phone"
                             ? "phone_no"
                             : (def.device_type == "camera" ? "ip" : "id");
      def.profile = std::move(profile).value();
      AORTA_RETURN_IF_ERROR_EXEC(host_->catalog().register_action(std::move(def)));
      return ExecResult{"action " + ca.name + " registered (bind an "
                        "implementation with register_action_impl)",
                        {}};
    }

    case query::Statement::Kind::kCreateAq: {
      std::string name = options.name_prefix + s.create_aq.name;
      query::ContinuousQueryExecutor::AqHooks hooks;
      hooks.owner = options.owner;
      hooks.on_row = options.on_row;
      AORTA_RETURN_IF_ERROR_EXEC(host_->executor().register_aq(
          name, s.create_aq.epoch_s, s.create_aq.select, std::move(hooks)));
      return ExecResult{"continuous query " + name + " registered", {}};
    }

    case query::Statement::Kind::kDropAq: {
      std::string name = options.name_prefix + s.drop_aq.name;
      AORTA_RETURN_IF_ERROR_EXEC(host_->executor().drop_aq(name));
      return ExecResult{"continuous query " + name + " dropped", {}};
    }

    case query::Statement::Kind::kExplain: {
      auto compiled = query::compile(s.select, host_->catalog(), host_->registry());
      if (!compiled.is_ok()) return Result<ExecResult>(compiled.status());
      return ExecResult{compiled.value().describe(), {}};
    }

    case query::Statement::Kind::kShow: {
      ExecResult result;
      using Target = query::ShowStmt::Target;
      switch (s.show.target) {
        case Target::kQueries:
          for (const std::string& name : host_->executor().aq_names()) {
            const query::QueryStats* qs = host_->executor().query_stats(name);
            query::QueryActionStats as = host_->executor().action_stats(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("events",
                             static_cast<std::int64_t>(qs ? qs->events : 0));
            row.emplace_back("usable", static_cast<std::int64_t>(as.usable));
            row.emplace_back("bad", static_cast<std::int64_t>(as.total_bad()));
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kActions:
          for (const std::string& name : host_->catalog().action_names()) {
            const query::ActionDef* def = host_->catalog().find_action(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("device_type", def->device_type);
            row.emplace_back("params",
                             static_cast<std::int64_t>(def->params.size()));
            row.emplace_back("library", def->library_path);
            row.emplace_back("bound", def->impl ? true : false);
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kDevices:
          for (const auto& type_id : host_->registry().type_ids()) {
            for (const auto& id : host_->registry().ids_of_type(type_id)) {
              const device::Device* dev = host_->registry().find(id);
              query::Row row;
              row.emplace_back("id", id);
              row.emplace_back("type", type_id);
              row.emplace_back("loc", dev->location());
              row.emplace_back("online", dev->online());
              result.rows.push_back(std::move(row));
            }
          }
          break;
      }
      result.message = aorta::util::str_format("%zu row(s)", result.rows.size());
      return result;
    }

    case query::Statement::Kind::kSelect:
      break;  // handled asynchronously in exec_async
  }
  return Result<ExecResult>(aorta::util::internal_error("bad statement kind"));
}

void Aorta::run_for(Duration span) {
  if (runtime_.running()) {
    // Called from inside an event (a test hook, say): the group is already
    // being driven, so only the calling loop may advance.
    host_->loop().run_for(span);
    return;
  }
  runtime_.run_for(span);
}

const query::QueryStats* Aorta::query_stats(const std::string& name) const {
  return host_->executor().query_stats(name);
}

query::QueryActionStats Aorta::action_stats(const std::string& name) const {
  return host_->executor().action_stats(name);
}

SystemStats Aorta::stats() const {
  return SystemStats{host_->locks().stats(), host_->prober().stats(),
                     host_->network().stats(),
                     host_->comm().engine().rpc().stats()};
}

}  // namespace aorta::core
