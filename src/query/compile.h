// Compilation of parsed SELECT statements into executable query plans.
//
// The plan separates, per Section 2's processing model:
//  - the *event table* (the virtual table whose sensory predicates define
//    the events of interest, e.g. sensor with s.accel_x > 500),
//  - per embedded action, the *candidate table* supplying devices for
//    device-selection optimization (e.g. camera, restricted by
//    coverage(c.id, s.loc)),
//  - predicate classification: event predicates (single-alias, pushed into
//    the event scan) vs join predicates (evaluated per event x candidate),
//  - the select list as actions, aggregates and plain projections, with
//    SELECT * expanded,
//  - one EvalProgram per per-row expression: compile() lowers every one or
//    rejects the statement, so nothing is interpreted at run time.
#pragma once

#include <optional>
#include <set>

#include "device/registry.h"
#include "query/aggregate.h"
#include "query/catalog.h"
#include "query/eval_program.h"

namespace aorta::query {

struct CompiledActionCall {
  const ActionDef* action = nullptr;
  std::vector<ExprPtr> args;    // evaluated per selected candidate device
  // Compiled form of each argument, aligned with `args`. The binding-param
  // argument is never evaluated (finalized per selected device), so its
  // slot holds an empty program.
  std::vector<EvalProgram> arg_programs;
  std::string candidate_alias;  // alias of the candidate table ("" = event table)
  std::size_t candidate_binding = 0;  // frame slot of candidate_alias
};

// A constraint on one event-schema slot other than the entry's primary
// one: a numeric interval (a point is lo == hi, both inclusive; an
// absent bound is an infinity, inclusive) or a string equality. A tuple
// satisfies it under compare_values' coercion: bool and int compare as
// doubles; NULL, Location, NaN and mistyped values satisfy nothing.
struct SlotCheck {
  std::uint32_t slot = 0;
  bool is_string = false;
  bool lo_strict = false;
  bool hi_strict = false;
  double lo = 0.0;
  double hi = 0.0;
  std::string str;  // valid when is_string

  bool operator==(const SlotCheck&) const = default;
};

// The predicate-index entry distilled from a continuous query's event
// predicates (see predicate_index.h). The compile pass intersects every
// IndexHint that lands on one event-schema slot into a single interval
// (or string-equality) constraint on that slot. The most selective slot
// by static rank is the *primary* one the entry is filed under; every
// other hinted slot's constraint rides along in `checks`, which the
// probe tests before it emits the entry. Together they are a *necessary*
// condition: every tuple the full predicate set accepts satisfies them,
// so probing yields a candidate superset and the residual EvalProgram
// run preserves exact semantics. When `exact` is set (every event
// predicate is hinted) they are also *sufficient* and the executor skips
// the residual run entirely.
struct IndexableConjunct {
  enum class Kind : std::uint8_t {
    kNever,    // contradictory conjuncts (x > 5 && x < 3): matches nothing
    kPointEq,  // slot == num
    kStrEq,    // slot == str
    kLower,    // slot > / >= num  (num in `lo`)
    kUpper,    // slot < / <= num  (num in `hi`)
    kRange,    // lo <(=) slot <(=) hi
  };

  Kind kind = Kind::kNever;
  std::uint32_t slot = 0;  // field slot in the event table's schema
  double lo = 0.0;         // valid for kPointEq / kLower / kRange
  double hi = 0.0;         // valid for kPointEq / kUpper / kRange
  bool lo_strict = false;
  bool hi_strict = false;
  std::string str;  // valid for kStrEq
  // The other hinted slots' constraints, most selective first (empty for
  // kNever, which matches nothing whatever they say).
  std::vector<SlotCheck> checks;
  bool exact = false;
};

// One top-level aggregate call of the select list (query/aggregate.h),
// lowered once; the one-shot SELECT and the AggregateCache fold it.
struct CompiledAggregate {
  AggOp op = AggOp::kCount;
  ExprPtr arg;          // the argument; null for COUNT(*) / COUNT()
  EvalProgram program;  // arg's program (empty for COUNT(*))
  std::string label;    // the call as written, e.g. "avg(s.temp)"
  // Output column index: aggregates and projections interleave in
  // select-list order (with SELECT * expanded).
  std::size_t position = 0;
};

struct CompiledQuery {
  std::string name;
  double epoch_s = 0.0;

  std::vector<TableRef> tables;  // alias -> virtual table (device type)
  std::map<std::string, device::DeviceTypeId> table_types;

  std::string event_alias;  // always set (defaults to the first table)
  bool edge_triggered = false;  // true iff sensory event predicates exist

  std::vector<ExprPtr> event_predicates;  // reference only the event table
  std::vector<ExprPtr> join_predicates;   // everything else

  std::vector<CompiledActionCall> actions;
  // Non-action, non-aggregate select items; SELECT * is expanded into one
  // qualified column ref per attribute (aliases sorted, schema order).
  std::vector<ExprPtr> projections;
  std::vector<CompiledAggregate> aggregates;  // select-list order
  // Output column labels, rendered once here: aggregates and projections
  // interleaved in select-list order (so projections[i] is labels[i] when
  // there is no aggregate). Every row the query produces copies them.
  std::vector<std::string> labels;

  // Continuous aggregation clauses, carried through from the statement
  // (the executor's AggregateCache consumes them; see DESIGN.md §15).
  std::vector<ExprPtr> group_by;
  double window_s = 0.0;
  double every_s = 0.0;

  // ---- compiled evaluation (query/eval_program.h) -----------------------
  // Frame layout: one slot per FROM alias, in FROM order. Every per-row
  // expression is lowered here, or compile() fails; per row the executor
  // fills a BindingFrame and runs the programs.
  std::vector<std::string> binding_aliases;
  std::size_t event_binding = 0;  // frame slot of event_alias
  // Per alias, the catalog's shared schema of its table
  // (Catalog::table_schema): owned by the catalog, not the query.
  std::map<std::string, const comm::Schema*> schemas;
  std::vector<EvalProgram> event_programs;       // aligned
  std::vector<EvalProgram> join_programs;        // aligned
  std::vector<EvalProgram> projection_programs;  // aligned

  // Attributes each scan must acquire (projection pushdown).
  std::map<std::string, std::set<std::string>> needed_attrs;

  // Indexable constraint over the event predicates, if any hinted
  // (continuous compiles only; nullopt puts the AQ on the residual list).
  std::optional<IndexableConjunct> index_conjunct;

  device::DeviceTypeId event_type() const {
    return table_types.at(event_alias);
  }

  // Number of programs lowered (every evaluated expression).
  std::size_t program_count() const;

  // Human-readable plan description (EXPLAIN output): the event table and
  // trigger mode, predicate classification, embedded actions with their
  // candidate tables, and the projection pushdown sets.
  std::string describe() const;
};

// Compile against the catalog (action/function names) and the registry
// (virtual table schemas). Every per-row expression is lowered to an
// EvalProgram or the statement is rejected with the lowering error: an
// unknown function, an aggregate nested in an expression, an unknown or
// ambiguous unqualified column. Top-level aggregate calls become
// `aggregates` (at most one argument; all but COUNT need one).
// Restrictions: at most 2 tables (the event table
// and one candidate table — the paper's query pattern). In continuous
// mode (`one_shot == false`), candidate-table predicates may only
// reference non-sensory (static) attributes, because candidates are
// evaluated from the registry cache before probing; one-shot SELECTs scan
// every table live, so the restriction does not apply.
aorta::util::Result<CompiledQuery> compile(const SelectStmt& stmt,
                                           const Catalog& catalog,
                                           const device::DeviceRegistry& registry,
                                           bool one_shot = false);

}  // namespace aorta::query
