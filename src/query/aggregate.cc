#include "query/aggregate.h"

#include <algorithm>

#include "util/strings.h"

namespace aorta::query {

using device::Value;

std::optional<AggOp> agg_op(const Expr& expr) {
  if (expr.kind != Expr::Kind::kFuncCall) return std::nullopt;
  const std::string fn = aorta::util::to_lower(expr.func_name);
  if (fn == "count") return AggOp::kCount;
  if (fn == "sum") return AggOp::kSum;
  if (fn == "avg") return AggOp::kAvg;
  if (fn == "min") return AggOp::kMin;
  if (fn == "max") return AggOp::kMax;
  return std::nullopt;
}

void AggFold::add(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return;
  ++count;
  double x = 0.0;
  if (!device::value_as_double(v, &x)) return;
  if (n == 0) {
    min = x;
    max = x;
  }
  sum += x;
  min = std::min(min, x);
  max = std::max(max, x);
  ++n;
}

Value AggFold::finalize(AggOp op) const {
  switch (op) {
    case AggOp::kCount:
      return static_cast<std::int64_t>(count);
    case AggOp::kSum:
      return n == 0 ? Value{} : Value{sum};
    case AggOp::kAvg:
      return n == 0 ? Value{} : Value{sum / static_cast<double>(n)};
    case AggOp::kMin:
      return n == 0 ? Value{} : Value{min};
    case AggOp::kMax:
      return n == 0 ? Value{} : Value{max};
  }
  return Value{};
}

void append_group_key(const Value& v, std::string* key) {
  struct Enc {
    std::string* out;
    void operator()(std::monostate) { *out += 'n'; }
    void operator()(bool b) { *out += b ? "b1" : "b0"; }
    void operator()(std::int64_t i) {
      *out += 'i';
      *out += std::to_string(i);
    }
    void operator()(double d) {
      *out += 'd';
      *out += aorta::util::str_format("%.17g", d);
    }
    void operator()(const std::string& s) {
      *out += 's';
      *out += std::to_string(s.size());
      *out += ':';
      *out += s;
    }
    void operator()(const device::Location& l) {
      *out += 'l';
      *out += aorta::util::str_format("%.17g,%.17g,%.17g", l.x, l.y, l.z);
    }
  };
  std::visit(Enc{key}, v);
  *key += ';';
}

}  // namespace aorta::query
