// Expression evaluation over device tuples: the tree-walking reference
// evaluator. No runtime path calls it per row — compile() lowers every
// per-row expression to an EvalProgram (query/eval_program.h) or rejects
// the statement. It stays as EvalProgram's compile-time constant folder
// and as the oracle/baseline for tests/eval_program_test.cc and
// bench_eval; the shared leaf semantics and the alias/column collectors
// below are used by both evaluators and the compiler.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "comm/tuple.h"
#include "query/ast.h"
#include "util/status.h"

namespace aorta::query {

// Engine-side scalar/boolean functions (coverage(), distance(), ...),
// evaluated over already-acquired values — as opposed to actions, which
// operate devices.
using ScalarFn = std::function<aorta::util::Result<device::Value>(
    const std::vector<device::Value>&)>;

class FunctionRegistry {
 public:
  aorta::util::Status add(std::string name, ScalarFn fn);
  // Heterogeneous lookup: no temporary std::string per call. The returned
  // pointer stays valid for the registry's lifetime (map nodes are stable
  // under insertion), which lets compiled programs pre-bind it.
  const ScalarFn* find(std::string_view name) const;
  std::vector<std::string> names() const;
  // Bumped by every successful add (see Catalog::version).
  std::uint64_t version() const { return version_; }

 private:
  std::map<std::string, ScalarFn, std::less<>> fns_;
  std::uint64_t version_ = 0;
};

// Binding environment: table alias -> tuple for the current row
// combination. Unqualified columns resolve against every bound tuple and
// must be unambiguous. Only the reference evaluator uses it — runtime
// paths run compiled EvalPrograms over a flat BindingFrame
// (query/eval_program.h). Queries bind at most two aliases, so a small
// sorted vector beats a node-based map.
class Env {
 public:
  using Binding = std::pair<std::string, const comm::Tuple*>;

  void bind(const std::string& alias, const comm::Tuple* tuple);
  const comm::Tuple* lookup(std::string_view alias) const;
  // Bindings in alias-sorted order (stable rendering, e.g. SELECT *).
  const std::vector<Binding>& bindings() const { return bindings_; }

 private:
  std::vector<Binding> bindings_;  // kept sorted by alias
};

// Shared leaf semantics for both evaluators (the tree-walking oracle below
// and the compiled EvalProgram): SQL-ish comparison / arithmetic over
// dynamically-typed values. Comparisons involving NULL yield FALSE;
// arithmetic involving NULL (or division by zero) yields NULL.
aorta::util::Result<device::Value> compare_values(BinaryOp op,
                                                  const device::Value& a,
                                                  const device::Value& b);
aorta::util::Result<device::Value> arithmetic_values(BinaryOp op,
                                                     const device::Value& a,
                                                     const device::Value& b);

// Evaluate an expression. Comparisons involving NULL yield FALSE;
// arithmetic involving NULL yields NULL (SQL-ish three-valued logic
// collapsed to two values, which is what predicate evaluation needs).
// Action calls must not appear here — the compiler extracts them from the
// select list before evaluation; an unknown function is an error.
aorta::util::Result<device::Value> eval(const Expr& expr, const Env& env,
                                        const FunctionRegistry& functions);

// Convenience: evaluate as a predicate (errors and NULL count as false —
// a sensory read that failed must not fire an event).
bool eval_predicate(const Expr& expr, const Env& env,
                    const FunctionRegistry& functions);

// Collect the table aliases an expression references, resolving
// unqualified columns against `schemas` (alias -> schema). Unknown or
// ambiguous columns produce an error.
aorta::util::Status collect_aliases(
    const Expr& expr, const std::map<std::string, const comm::Schema*>& schemas,
    std::set<std::string>* aliases);

// Collect column names referenced per alias (projection pushdown input).
void collect_columns(const Expr& expr,
                     const std::map<std::string, const comm::Schema*>& schemas,
                     std::map<std::string, std::set<std::string>>* columns);

}  // namespace aorta::query
