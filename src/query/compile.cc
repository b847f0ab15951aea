#include "query/compile.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.h"

namespace aorta::query {

using aorta::util::Result;
using aorta::util::Status;

namespace {

// Split a WHERE tree into top-level conjuncts.
void split_conjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == BinaryOp::kAnd) {
    split_conjuncts(*expr.lhs, out);
    split_conjuncts(*expr.rhs, out);
    return;
  }
  out->push_back(&expr);
}

// Does the expression reference any sensory attribute of `alias`?
bool references_sensory(const Expr& expr, const std::string& alias,
                        const comm::Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return false;
    case Expr::Kind::kColumnRef: {
      const comm::Field* field = nullptr;
      if (expr.qualifier == alias) {
        field = schema.field(expr.column);
      } else if (expr.qualifier.empty()) {
        field = schema.field(expr.column);
      }
      return field != nullptr && field->sensory;
    }
    case Expr::Kind::kFuncCall: {
      for (const auto& arg : expr.args) {
        if (references_sensory(*arg, alias, schema)) return true;
      }
      return false;
    }
    case Expr::Kind::kBinary:
      return references_sensory(*expr.lhs, alias, schema) ||
             references_sensory(*expr.rhs, alias, schema);
    case Expr::Kind::kNot:
      return references_sensory(*expr.lhs, alias, schema);
  }
  return false;
}

// Distill the event programs' IndexHints into one constraint per hinted
// slot, file the entry under the most selective one and carry the others
// as checks (see IndexableConjunct in compile.h). Works purely on
// compiled shapes: any predicate without a hint (or hinting a non-event
// binding, which classification should already preclude) makes the
// result inexact but never unsound — it just stays a residual filter.
std::optional<IndexableConjunct> distill_index_conjunct(
    const std::vector<EvalProgram>& event_programs,
    std::size_t event_binding) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct SlotAcc {
    double lo = -kInf;
    double hi = kInf;
    bool lo_strict = false;
    bool hi_strict = false;
    bool has_num = false;
    bool has_str = false;
    bool never = false;
    std::string str;
  };
  std::map<std::uint32_t, SlotAcc> slots;
  std::size_t hinted = 0;
  for (const auto& program : event_programs) {
    auto hint = program.index_hint();
    if (!hint || hint->binding != event_binding) continue;
    ++hinted;
    SlotAcc& acc = slots[hint->slot];
    if (hint->is_string) {
      if (acc.has_str && acc.str != hint->str) acc.never = true;
      acc.has_str = true;
      acc.str = hint->str;
      continue;
    }
    acc.has_num = true;
    if (std::isnan(hint->num)) {
      // Every comparison against NaN is false; the predicate set can
      // never hold.
      acc.never = true;
      continue;
    }
    switch (hint->op) {
      case BinaryOp::kEq:
        if (hint->num > acc.lo || (hint->num == acc.lo && !acc.lo_strict)) {
          acc.lo = hint->num;
          acc.lo_strict = false;
        }
        if (hint->num < acc.hi || (hint->num == acc.hi && !acc.hi_strict)) {
          acc.hi = hint->num;
          acc.hi_strict = false;
        }
        break;
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        bool strict = hint->op == BinaryOp::kGt;
        if (hint->num > acc.lo || (hint->num == acc.lo && strict)) {
          acc.lo = hint->num;
          acc.lo_strict = strict;
        }
        break;
      }
      case BinaryOp::kLt:
      case BinaryOp::kLe: {
        bool strict = hint->op == BinaryOp::kLt;
        if (hint->num < acc.hi || (hint->num == acc.hi && strict)) {
          acc.hi = hint->num;
          acc.hi_strict = strict;
        }
        break;
      }
      default:
        break;  // index_hint() never reports kNe or non-comparisons
    }
  }
  if (slots.empty()) return std::nullopt;

  // One constraint per slot, ranked. An infinite bound still excludes
  // NaN and non-numbers; only an inclusive one at its own infinity
  // excludes no number, so only that counts as "no bound".
  std::vector<IndexableConjunct> ranked;
  for (const auto& [slot, acc] : slots) {
    IndexableConjunct c;
    c.slot = slot;
    c.lo = acc.lo;
    c.hi = acc.hi;
    c.lo_strict = acc.lo_strict;
    c.hi_strict = acc.hi_strict;
    c.str = acc.str;
    bool empty_interval =
        acc.lo > acc.hi ||
        (acc.lo == acc.hi && (acc.lo_strict || acc.hi_strict));
    bool no_lo = acc.lo == -kInf && !acc.lo_strict;
    bool no_hi = acc.hi == kInf && !acc.hi_strict;
    if (acc.never || (acc.has_num && acc.has_str) ||
        (acc.has_num && empty_interval)) {
      // Contradiction (two distinct strings, string && numeric bound on
      // one slot, or an empty interval): nothing can match. kNever is the
      // most selective possible entry, so it wins outright.
      c.kind = IndexableConjunct::Kind::kNever;
    } else if (acc.has_str) {
      c.kind = IndexableConjunct::Kind::kStrEq;
    } else if (acc.lo == acc.hi) {  // both inclusive, else empty_interval
      c.kind = IndexableConjunct::Kind::kPointEq;
    } else if (no_lo && no_hi) {
      c.kind = IndexableConjunct::Kind::kRange;  // any number at all
    } else if (no_hi) {
      c.kind = IndexableConjunct::Kind::kLower;
    } else if (no_lo) {
      c.kind = IndexableConjunct::Kind::kUpper;
    } else {
      c.kind = IndexableConjunct::Kind::kRange;
    }
    ranked.push_back(std::move(c));
  }
  // Most selective first by a static rank of the kind (no data
  // statistics): a contradiction, an equality, a range, a half-line, and
  // last a range that admits any number. Ties keep slot order.
  auto rank = [](const IndexableConjunct& c) {
    using Kind = IndexableConjunct::Kind;
    if (c.kind == Kind::kNever) return 0;
    if (c.kind == Kind::kPointEq || c.kind == Kind::kStrEq) return 1;
    if (c.kind == Kind::kLower || c.kind == Kind::kUpper) return 3;
    const bool any_number =
        c.lo == -kInf && !c.lo_strict && c.hi == kInf && !c.hi_strict;
    return any_number ? 4 : 2;
  };
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&rank](const IndexableConjunct& a,
                           const IndexableConjunct& b) {
                     return rank(a) < rank(b);
                   });
  IndexableConjunct best = std::move(ranked.front());
  if (best.kind != IndexableConjunct::Kind::kNever) {
    for (std::size_t i = 1; i < ranked.size(); ++i) {
      const IndexableConjunct& other = ranked[i];
      SlotCheck check;
      check.slot = other.slot;
      check.is_string = other.kind == IndexableConjunct::Kind::kStrEq;
      check.lo = other.lo;
      check.hi = other.hi;
      check.lo_strict = other.lo_strict;
      check.hi_strict = other.hi_strict;
      check.str = other.str;
      best.checks.push_back(std::move(check));
    }
  }
  // Every slot's constraint is checked, so with nothing unhinted the
  // entry IS the predicate set: candidacy alone proves a match.
  best.exact = hinted == event_programs.size();
  return best;
}

}  // namespace

// Local helper: propagate a Status failure out of compile() as a Result.
#define RETURN_IF_ERROR_R(expr)                             \
  do {                                                      \
    ::aorta::util::Status _s = (expr);                      \
    if (!_s.is_ok()) return Result<CompiledQuery>(_s);      \
  } while (false)

Result<CompiledQuery> compile(const SelectStmt& stmt, const Catalog& catalog,
                              const device::DeviceRegistry& registry,
                              bool one_shot) {
  CompiledQuery q;

  // ---- FROM: virtual tables ------------------------------------------
  if (stmt.from.empty()) {
    return Result<CompiledQuery>(
        aorta::util::parse_error("query needs a FROM clause"));
  }
  if (stmt.from.size() > 2) {
    return Result<CompiledQuery>(aorta::util::invalid_argument_error(
        "at most 2 tables are supported (event table + candidate table)"));
  }

  // Schemas per alias: the catalog's one schema per device type, shared by
  // every query it compiles (program slot resolution needs them, and
  // EXPLAIN and candidate tuples outlive this call).
  for (const auto& ref : stmt.from) {
    const device::DeviceTypeInfo* info = registry.type_info(ref.table);
    if (info == nullptr) {
      return Result<CompiledQuery>(aorta::util::not_found_error(
          "unknown virtual table (device type): " + ref.table));
    }
    if (q.table_types.count(ref.alias) > 0) {
      return Result<CompiledQuery>(
          aorta::util::invalid_argument_error("duplicate alias: " + ref.alias));
    }
    q.tables.push_back(ref);
    q.table_types[ref.alias] = ref.table;
    q.binding_aliases.push_back(ref.alias);
    q.schemas[ref.alias] = &catalog.table_schema(*info);
  }
  const std::map<std::string, const comm::Schema*>& schemas = q.schemas;

  // ---- WHERE: conjunct classification -----------------------------------
  std::vector<const Expr*> conjuncts;
  if (stmt.where != nullptr) split_conjuncts(*stmt.where, &conjuncts);

  // First pass: find the event table = the unique alias with single-alias
  // sensory predicates.
  std::set<std::string> event_candidates;
  for (const Expr* c : conjuncts) {
    std::set<std::string> aliases;
    RETURN_IF_ERROR_R(collect_aliases(*c, schemas, &aliases));
    if (aliases.size() == 1) {
      const std::string& alias = *aliases.begin();
      if (references_sensory(*c, alias, *schemas.at(alias))) {
        event_candidates.insert(alias);
      }
    }
  }
  if (event_candidates.size() > 1) {
    if (!one_shot) {
      return Result<CompiledQuery>(aorta::util::invalid_argument_error(
          "sensory event predicates must reference a single table"));
    }
    // One-shot SELECTs have no event semantics: scan everything live.
    event_candidates = {stmt.from.front().alias};
  }
  if (event_candidates.size() == 1) {
    q.event_alias = *event_candidates.begin();
    q.edge_triggered = true;
  } else {
    q.event_alias = stmt.from.front().alias;
    q.edge_triggered = false;
  }

  // Second pass: classify conjuncts.
  for (const Expr* c : conjuncts) {
    std::set<std::string> aliases;
    RETURN_IF_ERROR_R(collect_aliases(*c, schemas, &aliases));
    if (aliases.empty() ||
        (aliases.size() == 1 && *aliases.begin() == q.event_alias)) {
      q.event_predicates.push_back(c->clone());
    } else {
      // Join / candidate predicates: in continuous mode candidate-table
      // sensory attributes are not available before probing, so reject
      // them with a clear message. One-shot SELECTs scan live and may use
      // them freely.
      if (!one_shot) {
        for (const std::string& alias : aliases) {
          if (alias != q.event_alias &&
              references_sensory(*c, alias, *schemas.at(alias))) {
            return Result<CompiledQuery>(aorta::util::invalid_argument_error(
                "candidate-table predicates may only use static attributes: " +
                c->to_string()));
          }
        }
      }
      q.join_predicates.push_back(c->clone());
    }
  }

  // ---- SELECT list: actions, aggregates, projections ----------------------
  for (const auto& item : stmt.select_list) {
    if (item->kind == Expr::Kind::kFuncCall) {
      const ActionDef* action = catalog.find_action(item->func_name);
      if (action != nullptr) {
        CompiledActionCall call;
        call.action = action;
        if (item->args.size() != action->params.size()) {
          return Result<CompiledQuery>(aorta::util::invalid_argument_error(
              aorta::util::str_format("action %s expects %zu arguments, got %zu",
                                      action->name.c_str(),
                                      action->params.size(),
                                      item->args.size())));
        }
        for (const auto& arg : item->args) call.args.push_back(arg->clone());

        // Candidate table: the alias referenced by the binding argument;
        // falls back to the event table (action on the event device, e.g.
        // beep(s.id)).
        std::set<std::string> binding_aliases;
        RETURN_IF_ERROR_R(collect_aliases(
            *call.args[action->binding_param], schemas, &binding_aliases));
        if (binding_aliases.size() > 1) {
          return Result<CompiledQuery>(aorta::util::invalid_argument_error(
              "action binding argument must reference one table"));
        }
        call.candidate_alias = binding_aliases.empty() ? q.event_alias
                                                       : *binding_aliases.begin();

        // The candidate table's device type must match the action's.
        const auto& cand_type = q.table_types.at(call.candidate_alias);
        if (cand_type != action->device_type) {
          return Result<CompiledQuery>(aorta::util::invalid_argument_error(
              "action " + action->name + " operates " + action->device_type +
              " devices, but its binding argument references table " +
              cand_type));
        }
        q.actions.push_back(std::move(call));
        continue;
      }
    }
    if (item->kind == Expr::Kind::kColumnRef && item->column == "*") {
      // SELECT *: every attribute of every table, labelled alias.field.
      for (const auto& [alias, schema] : q.schemas) {
        for (const auto& f : schema->fields()) {
          q.projections.push_back(Expr::make_column(alias, f.name));
          q.labels.push_back(q.projections.back()->to_string());
        }
      }
      continue;
    }
    if (auto op = agg_op(*item)) {
      if (item->args.size() > 1) {
        return Result<CompiledQuery>(aorta::util::invalid_argument_error(
            "aggregate takes at most one argument: " + item->to_string()));
      }
      const Expr* arg = item->args.empty() ? nullptr : item->args[0].get();
      if (arg != nullptr && arg->kind == Expr::Kind::kColumnRef &&
          arg->column == "*") {
        arg = nullptr;  // COUNT(*)
      }
      CompiledAggregate agg;
      agg.op = *op;
      if (arg != nullptr) agg.arg = arg->clone();
      if (agg.op != AggOp::kCount && agg.arg == nullptr) {
        return Result<CompiledQuery>(aorta::util::invalid_argument_error(
            "aggregate needs a column argument: " + item->to_string()));
      }
      agg.label = item->to_string();
      agg.position = q.labels.size();
      q.labels.push_back(agg.label);
      q.aggregates.push_back(std::move(agg));
      continue;
    }
    q.projections.push_back(item->clone());
    q.labels.push_back(item->to_string());
  }

  // ---- compiled evaluation ------------------------------------------------
  // Lower every per-row expression to a slot-resolved program once, or
  // reject the statement with the lowering error (unknown function, an
  // aggregate nested in an expression, unknown unqualified column).
  for (std::size_t i = 0; i < q.binding_aliases.size(); ++i) {
    if (q.binding_aliases[i] == q.event_alias) q.event_binding = i;
  }
  auto lower = [&](const Expr& e, EvalProgram* out) -> Status {
    auto p = EvalProgram::compile(e, q.binding_aliases, schemas,
                                  catalog.functions());
    if (!p.is_ok()) return p.status();
    *out = std::move(p).value();
    return Status::ok();
  };
  auto lower_all = [&](const std::vector<ExprPtr>& exprs,
                       std::vector<EvalProgram>* out) -> Status {
    out->resize(exprs.size());
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      AORTA_RETURN_IF_ERROR(lower(*exprs[i], &(*out)[i]));
    }
    return Status::ok();
  };
  RETURN_IF_ERROR_R(lower_all(q.event_predicates, &q.event_programs));
  RETURN_IF_ERROR_R(lower_all(q.join_predicates, &q.join_programs));
  RETURN_IF_ERROR_R(lower_all(q.projections, &q.projection_programs));
  for (auto& agg : q.aggregates) {
    if (agg.arg != nullptr) RETURN_IF_ERROR_R(lower(*agg.arg, &agg.program));
  }
  for (auto& call : q.actions) {
    for (std::size_t i = 0; i < q.binding_aliases.size(); ++i) {
      if (q.binding_aliases[i] == call.candidate_alias) {
        call.candidate_binding = i;
      }
    }
    call.arg_programs.resize(call.args.size());
    for (std::size_t a = 0; a < call.args.size(); ++a) {
      if (a == call.action->binding_param) continue;
      RETURN_IF_ERROR_R(lower(*call.args[a], &call.arg_programs[a]));
    }
  }

  // ---- projection pushdown ----------------------------------------------
  for (const Expr* c : conjuncts) collect_columns(*c, schemas, &q.needed_attrs);
  for (const auto& item : stmt.select_list) {
    if (item->kind == Expr::Kind::kColumnRef && item->column == "*") {
      // SELECT *: need everything from every table.
      for (const auto& [alias, schema] : schemas) {
        for (const auto& f : schema->fields()) {
          q.needed_attrs[alias].insert(f.name);
        }
      }
      continue;
    }
    collect_columns(*item, schemas, &q.needed_attrs);
  }
  for (const auto& g : stmt.group_by) {
    collect_columns(*g, schemas, &q.needed_attrs);
    q.group_by.push_back(g->clone());
  }
  q.window_s = stmt.window_s;
  q.every_s = stmt.every_s;

  // ---- predicate-index metadata ------------------------------------------
  // One-shot SELECTs scan once and never register with the index.
  if (!one_shot) {
    q.index_conjunct =
        distill_index_conjunct(q.event_programs, q.event_binding);
  }

  return q;
}

}  // namespace aorta::query

namespace aorta::query {

std::size_t CompiledQuery::program_count() const {
  std::size_t n = event_programs.size() + join_programs.size() +
                  projection_programs.size();
  for (const auto& agg : aggregates) {
    if (agg.arg != nullptr) ++n;
  }
  // The binding-param slot of each action holds no program.
  for (const auto& call : actions) n += call.arg_programs.size() - 1;
  return n;
}

std::string CompiledQuery::describe() const {
  std::string out;
  out += "plan:\n";
  out += "  event table: " + event_alias + " (" + table_types.at(event_alias) +
         "), " + (edge_triggered ? "edge-triggered" : "level-triggered") + "\n";
  out += "  event predicates (pushed into the scan):\n";
  if (event_predicates.empty()) out += "    <none>\n";
  for (const auto& p : event_predicates) {
    out += "    " + p->to_string() + "\n";
  }
  out += "  join/candidate predicates:\n";
  if (join_predicates.empty()) out += "    <none>\n";
  for (const auto& p : join_predicates) {
    out += "    " + p->to_string() + "\n";
  }
  if (!actions.empty()) {
    out += "  embedded actions (shared operators):\n";
    for (const auto& call : actions) {
      out += "    " + call.action->name + " on " + call.action->device_type +
             " via candidate table " + call.candidate_alias + "\n";
    }
  }
  if (!projections.empty()) {
    out += "  projections:\n";
    for (const auto& p : projections) {
      out += "    " + p->to_string() + "\n";
    }
  }
  if (!aggregates.empty()) {
    out += "  aggregates:\n";
    for (const auto& agg : aggregates) out += "    " + agg.label + "\n";
  }
  std::size_t instrs = 0, folded = 0;
  auto tally = [&](const EvalProgram& p) {
    instrs += p.instruction_count();
    folded += p.folded_nodes();
  };
  for (const auto& p : event_programs) tally(p);
  for (const auto& p : join_programs) tally(p);
  for (const auto& p : projection_programs) tally(p);
  for (const auto& agg : aggregates) tally(agg.program);
  for (const auto& call : actions) {
    for (const auto& p : call.arg_programs) tally(p);
  }
  out += "  compiled evaluation: " + std::to_string(program_count()) +
         " program(s), " + std::to_string(instrs) + " instruction(s), " +
         std::to_string(folded) + " node(s) constant-folded\n";
  out += "  scan attributes (projection pushdown):\n";
  for (const auto& [alias, attrs] : needed_attrs) {
    out += "    " + alias + ": ";
    bool first = true;
    for (const auto& a : attrs) {
      if (!first) out += ", ";
      out += a;
      first = false;
    }
    out += "\n";
  }
  return out;
}

}  // namespace aorta::query
