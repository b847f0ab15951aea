#include "query/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/strings.h"

namespace aorta::query {

using aorta::util::Result;
using aorta::util::Status;
using device::Value;

Status FunctionRegistry::add(std::string name, ScalarFn fn) {
  auto [it, inserted] = fns_.emplace(std::move(name), std::move(fn));
  if (!inserted) {
    return aorta::util::already_exists_error("function already registered: " +
                                             it->first);
  }
  ++version_;
  return Status::ok();
}

const ScalarFn* FunctionRegistry::find(std::string_view name) const {
  auto it = fns_.find(name);
  return it == fns_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, fn] : fns_) out.push_back(name);
  return out;
}

void Env::bind(const std::string& alias, const comm::Tuple* tuple) {
  auto it = std::lower_bound(
      bindings_.begin(), bindings_.end(), alias,
      [](const Binding& b, const std::string& a) { return b.first < a; });
  if (it != bindings_.end() && it->first == alias) {
    it->second = tuple;
    return;
  }
  bindings_.insert(it, Binding{alias, tuple});
}

const comm::Tuple* Env::lookup(std::string_view alias) const {
  for (const Binding& b : bindings_) {
    if (b.first == alias) return b.second;
  }
  return nullptr;
}

namespace {

Result<Value> resolve_column(const Expr& expr, const Env& env) {
  if (!expr.qualifier.empty()) {
    const comm::Tuple* tuple = env.lookup(expr.qualifier);
    if (tuple == nullptr) {
      return Result<Value>(aorta::util::not_found_error(
          "unbound table alias: " + expr.qualifier));
    }
    return tuple->get(expr.column);
  }
  // Unqualified: search all bindings; must match exactly one schema.
  const comm::Tuple* found = nullptr;
  for (const auto& [alias, tuple] : env.bindings()) {
    if (tuple != nullptr && tuple->schema() != nullptr &&
        tuple->schema()->index_of(expr.column).has_value()) {
      if (found != nullptr) {
        return Result<Value>(aorta::util::invalid_argument_error(
            "ambiguous column: " + expr.column));
      }
      found = tuple;
    }
  }
  if (found == nullptr) {
    return Result<Value>(
        aorta::util::not_found_error("unknown column: " + expr.column));
  }
  return found->get(expr.column);
}

bool is_null(const Value& v) { return std::holds_alternative<std::monostate>(v); }

}  // namespace

Result<Value> compare_values(BinaryOp op, const Value& a, const Value& b) {
  if (is_null(a) || is_null(b)) return Value{false};

  // Numeric comparison when both coerce.
  double da, db;
  if (device::value_as_double(a, &da) && device::value_as_double(b, &db)) {
    switch (op) {
      case BinaryOp::kEq: return Value{da == db};
      case BinaryOp::kNe: return Value{da != db};
      case BinaryOp::kLt: return Value{da < db};
      case BinaryOp::kLe: return Value{da <= db};
      case BinaryOp::kGt: return Value{da > db};
      case BinaryOp::kGe: return Value{da >= db};
      default: break;
    }
  }
  // String comparison.
  const std::string* sa = std::get_if<std::string>(&a);
  const std::string* sb = std::get_if<std::string>(&b);
  if (sa != nullptr && sb != nullptr) {
    switch (op) {
      case BinaryOp::kEq: return Value{*sa == *sb};
      case BinaryOp::kNe: return Value{*sa != *sb};
      case BinaryOp::kLt: return Value{*sa < *sb};
      case BinaryOp::kLe: return Value{*sa <= *sb};
      case BinaryOp::kGt: return Value{*sa > *sb};
      case BinaryOp::kGe: return Value{*sa >= *sb};
      default: break;
    }
  }
  // Location equality.
  const device::Location* la = std::get_if<device::Location>(&a);
  const device::Location* lb = std::get_if<device::Location>(&b);
  if (la != nullptr && lb != nullptr &&
      (op == BinaryOp::kEq || op == BinaryOp::kNe)) {
    bool eq = *la == *lb;
    return Value{op == BinaryOp::kEq ? eq : !eq};
  }
  return Result<Value>(aorta::util::invalid_argument_error(
      "incomparable values: " + device::value_to_string(a) + " vs " +
      device::value_to_string(b)));
}

Result<Value> arithmetic_values(BinaryOp op, const Value& a, const Value& b) {
  if (is_null(a) || is_null(b)) return Value{};
  double da, db;
  if (!device::value_as_double(a, &da) || !device::value_as_double(b, &db)) {
    // String concatenation with '+'.
    const std::string* sa = std::get_if<std::string>(&a);
    const std::string* sb = std::get_if<std::string>(&b);
    if (op == BinaryOp::kAdd && sa != nullptr && sb != nullptr) {
      return Value{*sa + *sb};
    }
    return Result<Value>(aorta::util::invalid_argument_error(
        "non-numeric operand to arithmetic"));
  }
  switch (op) {
    case BinaryOp::kAdd: return Value{da + db};
    case BinaryOp::kSub: return Value{da - db};
    case BinaryOp::kMul: return Value{da * db};
    case BinaryOp::kDiv:
      if (db == 0.0) return Value{};  // NULL on division by zero
      return Value{da / db};
    default:
      return Result<Value>(aorta::util::internal_error("bad arithmetic op"));
  }
}

Result<Value> eval(const Expr& expr, const Env& env,
                   const FunctionRegistry& functions) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef:
      return resolve_column(expr, env);
    case Expr::Kind::kFuncCall: {
      const ScalarFn* fn = functions.find(expr.func_name);
      if (fn == nullptr) {
        return Result<Value>(aorta::util::not_found_error(
            "unknown function: " + expr.func_name));
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& arg : expr.args) {
        auto v = eval(*arg, env, functions);
        if (!v.is_ok()) return v;
        args.push_back(std::move(v).value());
      }
      return (*fn)(args);
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        auto lhs = eval(*expr.lhs, env, functions);
        if (!lhs.is_ok()) return lhs;
        bool l = device::value_truthy(lhs.value());
        // Short-circuit.
        if (expr.op == BinaryOp::kAnd && !l) return Value{false};
        if (expr.op == BinaryOp::kOr && l) return Value{true};
        auto rhs = eval(*expr.rhs, env, functions);
        if (!rhs.is_ok()) return rhs;
        return Value{device::value_truthy(rhs.value())};
      }
      auto lhs = eval(*expr.lhs, env, functions);
      if (!lhs.is_ok()) return lhs;
      auto rhs = eval(*expr.rhs, env, functions);
      if (!rhs.is_ok()) return rhs;
      switch (expr.op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return compare_values(expr.op, lhs.value(), rhs.value());
        default:
          return arithmetic_values(expr.op, lhs.value(), rhs.value());
      }
    }
    case Expr::Kind::kNot: {
      auto operand = eval(*expr.lhs, env, functions);
      if (!operand.is_ok()) return operand;
      return Value{!device::value_truthy(operand.value())};
    }
  }
  return Result<Value>(aorta::util::internal_error("bad expression kind"));
}

bool eval_predicate(const Expr& expr, const Env& env,
                    const FunctionRegistry& functions) {
  auto v = eval(expr, env, functions);
  return v.is_ok() && device::value_truthy(v.value());
}

Status collect_aliases(const Expr& expr,
                       const std::map<std::string, const comm::Schema*>& schemas,
                       std::set<std::string>* aliases) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return Status::ok();
    case Expr::Kind::kColumnRef: {
      if (expr.column == "*") return Status::ok();
      if (!expr.qualifier.empty()) {
        auto it = schemas.find(expr.qualifier);
        if (it == schemas.end()) {
          return aorta::util::not_found_error("unknown table alias: " +
                                              expr.qualifier);
        }
        if (it->second != nullptr &&
            !it->second->index_of(expr.column).has_value()) {
          return aorta::util::not_found_error(
              "table " + expr.qualifier + " has no column " + expr.column);
        }
        aliases->insert(expr.qualifier);
        return Status::ok();
      }
      std::string found;
      for (const auto& [alias, schema] : schemas) {
        if (schema != nullptr && schema->index_of(expr.column).has_value()) {
          if (!found.empty()) {
            return aorta::util::invalid_argument_error("ambiguous column: " +
                                                       expr.column);
          }
          found = alias;
        }
      }
      if (found.empty()) {
        return aorta::util::not_found_error("unknown column: " + expr.column);
      }
      aliases->insert(found);
      return Status::ok();
    }
    case Expr::Kind::kFuncCall: {
      for (const auto& arg : expr.args) {
        AORTA_RETURN_IF_ERROR(collect_aliases(*arg, schemas, aliases));
      }
      return Status::ok();
    }
    case Expr::Kind::kBinary:
      AORTA_RETURN_IF_ERROR(collect_aliases(*expr.lhs, schemas, aliases));
      return collect_aliases(*expr.rhs, schemas, aliases);
    case Expr::Kind::kNot:
      return collect_aliases(*expr.lhs, schemas, aliases);
  }
  return Status::ok();
}

void collect_columns(const Expr& expr,
                     const std::map<std::string, const comm::Schema*>& schemas,
                     std::map<std::string, std::set<std::string>>* columns) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kColumnRef: {
      if (expr.column == "*") return;
      if (!expr.qualifier.empty()) {
        (*columns)[expr.qualifier].insert(expr.column);
        return;
      }
      for (const auto& [alias, schema] : schemas) {
        if (schema != nullptr && schema->index_of(expr.column).has_value()) {
          (*columns)[alias].insert(expr.column);
          return;  // first match; ambiguity reported by collect_aliases
        }
      }
      return;
    }
    case Expr::Kind::kFuncCall:
      for (const auto& arg : expr.args) collect_columns(*arg, schemas, columns);
      return;
    case Expr::Kind::kBinary:
      collect_columns(*expr.lhs, schemas, columns);
      collect_columns(*expr.rhs, schemas, columns);
      return;
    case Expr::Kind::kNot:
      collect_columns(*expr.lhs, schemas, columns);
      return;
  }
}

}  // namespace aorta::query
