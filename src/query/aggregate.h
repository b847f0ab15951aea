// The aggregate functions, defined once (DESIGN.md §15).
//
// count/sum/avg/min/max are recognised in exactly one place (agg_op) and
// folded by exactly one type (AggFold). compile() lowers each top-level
// call into a CompiledQuery aggregate; the one-shot SELECT folds the
// joined rows into one AggFold per call; the AggregateCache folds one per
// pane and re-folds a window's panes at emission; the czar merges the
// workers' finalized per-shard partials by op.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "query/ast.h"

namespace aorta::query {

enum class AggOp : std::uint8_t { kCount, kSum, kAvg, kMin, kMax };

// The aggregate a top-level call names (case-insensitive), or nullopt for
// any other expression. The call's shape is checked by compile().
std::optional<AggOp> agg_op(const Expr& expr);

// Partial fold of one aggregate argument. NULLs (and evaluation errors)
// never contribute; every other value counts toward COUNT, and a numeric
// one also toward SUM/AVG/MIN/MAX. COUNT(*) bumps `count` directly.
struct AggFold {
  std::uint64_t count = 0;  // non-null inputs
  std::uint64_t n = 0;      // numeric inputs
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(const device::Value& v);
  // COUNT is 0 over no input; SUM/AVG/MIN/MAX are NULL without a numeric
  // input.
  device::Value finalize(AggOp op) const;
};

// Append one group-key column's value to `key`: a deterministic, injective
// encoding (%.17g doubles, length-prefixed strings). The aggregate cache's
// group maps and the czar's merge buckets both key on it, so groups
// bucket and emit in the same order on either side.
void append_group_key(const device::Value& v, std::string* key);

}  // namespace aorta::query
