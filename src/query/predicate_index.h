// Compiled-predicate index: sub-linear matching of swept tuples against
// registered continuous queries.
//
// Exhaustive matching runs every subscribed AQ's EvalProgram on every
// tuple the ScanBroker delivers — O(tuples x AQs), which caps the service
// at a few thousand AQs per worker. This index inverts the hot path, in
// the spirit of pub/sub predicate indexing and search-engine skip
// pruning: at register time the compile pass distills each AQ's event
// predicates into one IndexableConjunct (compile.h) — a constraint on
// every hinted slot — and the executor files it here under its primary
// (most selective) slot, with the other slots' constraints stored beside
// the handle as checks. Per tuple, one probe per populated slot finds the
// entries whose primary constraint the tuple satisfies and emits those
// whose checks it passes too; an `exact` entry so emitted needs no
// residual program run. AQs whose predicates don't distill (function
// calls, ORs, cross-column compares) sit on a residual list and are
// evaluated exhaustively, so semantics are exactly those of the
// unindexed path.
//
// Structures, per event-schema slot:
//  - point equality     -> std::map keyed by the constant
//  - string equality    -> hash buckets
//  - one-sided bounds   -> ordered maps of bound constants, walked only
//                          over the matching prefix/suffix (output-
//                          sensitive: cost is O(log n + matches))
//  - two-sided ranges   -> an interval treap keyed by the low bound with
//                          a max-high subtree augmentation for pruning
//  - kNever entries     -> counted but never probed (contradictory
//                          predicates match nothing)
// Every map bucket splits its handles by their check lists, so the
// entries sharing a primary key and identical checks pay one check per
// probe between them; a treap node holds its own entry's checks.
//
// Determinism: the treap's heap priorities are a splitmix64 of the entry
// handle — no RNG, no pointer-order dependence — so the tree shape, and
// therefore probe output order, is a pure function of the registered
// entries. Callers that need a canonical order sort the output
// themselves (the executor's handles are member-table slots, which it
// orders by AQ generation). Instances are confined to one executor (one
// worker loop) each; there is no cross-loop shared state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/tuple.h"
#include "query/compile.h"

namespace aorta::query {

class PredicateIndex {
 public:
  // Entry identity, unique among the entries filed at any one time. The
  // executor uses its member-table slot, freed only after the remove.
  using Handle = std::uint64_t;

  // File `conjunct` under `handle`. A null conjunct goes on the residual
  // list (the AQ must be evaluated for every tuple). The conjunct's
  // constraints are copied; the caller's storage need not outlive the
  // index.
  void add(Handle handle, const IndexableConjunct* conjunct);

  // Remove `handle`, which must have been added with an equal conjunct
  // (the executor passes the AQ's own, which is immutable).
  void remove(Handle handle, const IndexableConjunct* conjunct);

  // Append every indexed handle whose primary constraint and checks
  // `tuple` satisfies. Residual-list handles are NOT appended — iterate
  // residuals() too. A slot value that is NULL, non-numeric (for numeric
  // constraints), non-string (for string equality), or NaN satisfies
  // nothing, exactly matching compare_values() semantics: such
  // comparisons are false.
  void probe(const comm::Tuple& tuple, std::vector<Handle>* out) const;

  const std::vector<Handle>& residuals() const { return residual_; }

  // Total entries filed (indexed + residual + never-match).
  std::size_t size() const { return entries_; }
  std::size_t residual_size() const { return residual_.size(); }
  std::size_t never_size() const { return never_; }

 private:
  // The entries sharing one primary key, split into parts by check list
  // (registration order within a part).
  struct Bucket {
    struct Part {
      std::vector<SlotCheck> checks;
      std::vector<Handle> handles;
    };
    std::vector<Part> parts;

    void add(Handle handle, const std::vector<SlotCheck>& checks);
    void remove(Handle handle, const std::vector<SlotCheck>& checks);
    // Append the handles of every part whose checks `tuple` passes.
    void emit(const comm::Tuple& tuple, std::vector<Handle>* out) const;
    bool empty() const { return parts.empty(); }
  };

  // One-sided bound constraints sharing a constant, split by strictness
  // so the boundary key emits exactly the right set.
  struct Bound {
    Bucket strict;
    Bucket incl;
    bool empty() const { return strict.empty() && incl.empty(); }
  };

  // Interval treap node (two-sided ranges). BST-ordered by (lo, handle),
  // heap-ordered by the handle-derived priority.
  struct RangeNode {
    double lo, hi;
    bool lo_strict, hi_strict;
    Handle handle;
    std::uint64_t priority;
    double max_hi;  // max hi over this subtree
    std::vector<SlotCheck> checks;
    std::unique_ptr<RangeNode> left, right;
  };

  struct SlotIndex {
    std::map<double, Bucket> eq;
    std::map<double, Bound> lower;  // key = low bound  (x > / >= key)
    std::map<double, Bound> upper;  // key = high bound (x < / <= key)
    std::unordered_map<std::string, Bucket> str_eq;
    std::unique_ptr<RangeNode> ranges;
    std::size_t entries = 0;

    bool empty() const { return entries == 0; }
  };

  static void pull_max_hi(RangeNode* n);
  static bool node_before(const RangeNode& a, double lo, Handle handle);
  static std::unique_ptr<RangeNode> range_insert(std::unique_ptr<RangeNode>,
                                                 std::unique_ptr<RangeNode>);
  static std::unique_ptr<RangeNode> range_remove(std::unique_ptr<RangeNode>,
                                                 double lo, Handle handle);
  static void range_probe(const RangeNode* node, double x,
                          const comm::Tuple& tuple, std::vector<Handle>* out);

  std::map<std::uint32_t, SlotIndex> slots_;
  std::vector<Handle> residual_;  // registration order
  std::size_t never_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace aorta::query
