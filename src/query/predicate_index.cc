#include "query/predicate_index.h"

#include <algorithm>
#include <cmath>

namespace aorta::query {

namespace {

// Deterministic heap priority from the entry handle (splitmix64 finisher).
// No RNG and no pointer values: the treap shape is a pure function of the
// registered handle set, which keeps parallel-runtime replays byte-stable.
std::uint64_t priority_of(std::uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

void erase_handle(std::vector<PredicateIndex::Handle>* v,
                  PredicateIndex::Handle h) {
  auto it = std::find(v->begin(), v->end(), h);
  if (it != v->end()) v->erase(it);
}

// A slot value's verdict under one check, with the coercion rules the
// probe applies to the primary slot (see probe()).
bool passes(const SlotCheck& check, const device::Value& v) {
  if (check.is_string) {
    const std::string* s = std::get_if<std::string>(&v);
    return s != nullptr && *s == check.str;
  }
  double x;
  if (!device::value_as_double(v, &x) || std::isnan(x)) return false;
  return (x > check.lo || (x == check.lo && !check.lo_strict)) &&
         (x < check.hi || (x == check.hi && !check.hi_strict));
}

bool passes_all(const std::vector<SlotCheck>& checks,
                const comm::Tuple& tuple) {
  for (const SlotCheck& check : checks) {
    if (!passes(check, tuple.at(check.slot))) return false;
  }
  return true;
}

}  // namespace

// ---- buckets -------------------------------------------------------------

void PredicateIndex::Bucket::add(Handle handle,
                                 const std::vector<SlotCheck>& checks) {
  for (Part& part : parts) {
    if (part.checks == checks) {
      part.handles.push_back(handle);
      return;
    }
  }
  parts.push_back(Part{checks, {handle}});
}

void PredicateIndex::Bucket::remove(Handle handle,
                                    const std::vector<SlotCheck>& checks) {
  for (auto part = parts.begin(); part != parts.end(); ++part) {
    if (part->checks != checks) continue;
    erase_handle(&part->handles, handle);
    if (part->handles.empty()) parts.erase(part);
    return;
  }
}

void PredicateIndex::Bucket::emit(const comm::Tuple& tuple,
                                  std::vector<Handle>* out) const {
  for (const Part& part : parts) {
    if (passes_all(part.checks, tuple)) {
      out->insert(out->end(), part.handles.begin(), part.handles.end());
    }
  }
}

// ---- interval treap ------------------------------------------------------

void PredicateIndex::pull_max_hi(RangeNode* n) {
  n->max_hi = n->hi;
  if (n->left && n->left->max_hi > n->max_hi) n->max_hi = n->left->max_hi;
  if (n->right && n->right->max_hi > n->max_hi) n->max_hi = n->right->max_hi;
}

// BST order: (lo, handle). Handles are unique, so the order is total.
bool PredicateIndex::node_before(const RangeNode& a, double lo,
                                 Handle handle) {
  if (a.lo != lo) return a.lo < lo;
  return a.handle < handle;
}

std::unique_ptr<PredicateIndex::RangeNode> PredicateIndex::range_insert(
    std::unique_ptr<RangeNode> root, std::unique_ptr<RangeNode> node) {
  if (!root) {
    pull_max_hi(node.get());
    return node;
  }
  if (node->priority > root->priority) {
    // `node` becomes the new subtree root: split `root` around it.
    // Because `node` is a fresh single node, splitting is just repeated
    // insertion of the two halves — do it recursively via rotation-free
    // split.
    std::unique_ptr<RangeNode> less, more;
    // Split root's tree by (node->lo, node->handle).
    struct Splitter {
      double lo;
      Handle handle;
      void split(std::unique_ptr<RangeNode> t, std::unique_ptr<RangeNode>* l,
                 std::unique_ptr<RangeNode>* r) {
        if (!t) {
          l->reset();
          r->reset();
          return;
        }
        if (node_before(*t, lo, handle)) {
          split(std::move(t->right), &t->right, r);
          pull_max_hi(t.get());
          *l = std::move(t);
        } else {
          split(std::move(t->left), l, &t->left);
          pull_max_hi(t.get());
          *r = std::move(t);
        }
      }
    } splitter{node->lo, node->handle};
    splitter.split(std::move(root), &less, &more);
    node->left = std::move(less);
    node->right = std::move(more);
    pull_max_hi(node.get());
    return node;
  }
  if (node_before(*node, root->lo, root->handle)) {
    root->left = range_insert(std::move(root->left), std::move(node));
  } else {
    root->right = range_insert(std::move(root->right), std::move(node));
  }
  pull_max_hi(root.get());
  return root;
}

std::unique_ptr<PredicateIndex::RangeNode> PredicateIndex::range_remove(
    std::unique_ptr<RangeNode> root, double lo, Handle handle) {
  if (!root) return nullptr;
  if (root->lo == lo && root->handle == handle) {
    // Merge the children (both heaps; standard treap join).
    struct Joiner {
      std::unique_ptr<RangeNode> join(std::unique_ptr<RangeNode> a,
                                      std::unique_ptr<RangeNode> b) {
        if (!a) return b;
        if (!b) return a;
        if (a->priority > b->priority) {
          a->right = join(std::move(a->right), std::move(b));
          pull_max_hi(a.get());
          return a;
        }
        b->left = join(std::move(a), std::move(b->left));
        pull_max_hi(b.get());
        return b;
      }
    } joiner;
    return joiner.join(std::move(root->left), std::move(root->right));
  }
  if (node_before(*root, lo, handle)) {
    root->right = range_remove(std::move(root->right), lo, handle);
  } else {
    root->left = range_remove(std::move(root->left), lo, handle);
  }
  pull_max_hi(root.get());
  return root;
}

void PredicateIndex::range_probe(const RangeNode* node, double x,
                                 const comm::Tuple& tuple,
                                 std::vector<Handle>* out) {
  // Prune whole subtrees whose every high bound lies strictly below x.
  // (max_hi == x with a strict bound survives the prune; the node-level
  // check below rejects it exactly.)
  if (node == nullptr || node->max_hi < x) return;
  range_probe(node->left.get(), x, tuple, out);
  // Nodes (and right descendants) with lo > x cannot contain x.
  if (node->lo > x) return;
  bool lo_ok = x > node->lo || (x == node->lo && !node->lo_strict);
  bool hi_ok = x < node->hi || (x == node->hi && !node->hi_strict);
  if (lo_ok && hi_ok && passes_all(node->checks, tuple)) {
    out->push_back(node->handle);
  }
  range_probe(node->right.get(), x, tuple, out);
}

// ---- add / remove --------------------------------------------------------

void PredicateIndex::add(Handle handle, const IndexableConjunct* conjunct) {
  ++entries_;
  if (conjunct == nullptr) {
    residual_.push_back(handle);
    return;
  }
  using Kind = IndexableConjunct::Kind;
  if (conjunct->kind == Kind::kNever) {
    ++never_;
    return;
  }
  SlotIndex& s = slots_[conjunct->slot];
  ++s.entries;
  const std::vector<SlotCheck>& checks = conjunct->checks;
  switch (conjunct->kind) {
    case Kind::kPointEq:
      s.eq[conjunct->lo].add(handle, checks);
      break;
    case Kind::kStrEq:
      s.str_eq[conjunct->str].add(handle, checks);
      break;
    case Kind::kLower: {
      Bound& b = s.lower[conjunct->lo];
      (conjunct->lo_strict ? b.strict : b.incl).add(handle, checks);
      break;
    }
    case Kind::kUpper: {
      Bound& b = s.upper[conjunct->hi];
      (conjunct->hi_strict ? b.strict : b.incl).add(handle, checks);
      break;
    }
    case Kind::kRange: {
      auto node = std::make_unique<RangeNode>();
      node->lo = conjunct->lo;
      node->hi = conjunct->hi;
      node->lo_strict = conjunct->lo_strict;
      node->hi_strict = conjunct->hi_strict;
      node->handle = handle;
      node->priority = priority_of(handle);
      node->max_hi = conjunct->hi;
      node->checks = checks;
      s.ranges = range_insert(std::move(s.ranges), std::move(node));
      break;
    }
    case Kind::kNever:
      break;  // handled above
  }
}

void PredicateIndex::remove(Handle handle, const IndexableConjunct* conjunct) {
  if (entries_ > 0) --entries_;
  if (conjunct == nullptr) {
    erase_handle(&residual_, handle);
    return;
  }
  using Kind = IndexableConjunct::Kind;
  if (conjunct->kind == Kind::kNever) {
    if (never_ > 0) --never_;
    return;
  }
  auto sit = slots_.find(conjunct->slot);
  if (sit == slots_.end()) return;
  SlotIndex& s = sit->second;
  if (s.entries > 0) --s.entries;
  const std::vector<SlotCheck>& checks = conjunct->checks;
  switch (conjunct->kind) {
    case Kind::kPointEq: {
      auto it = s.eq.find(conjunct->lo);
      if (it != s.eq.end()) {
        it->second.remove(handle, checks);
        if (it->second.empty()) s.eq.erase(it);
      }
      break;
    }
    case Kind::kStrEq: {
      auto it = s.str_eq.find(conjunct->str);
      if (it != s.str_eq.end()) {
        it->second.remove(handle, checks);
        if (it->second.empty()) s.str_eq.erase(it);
      }
      break;
    }
    case Kind::kLower: {
      auto it = s.lower.find(conjunct->lo);
      if (it != s.lower.end()) {
        (conjunct->lo_strict ? it->second.strict : it->second.incl)
            .remove(handle, checks);
        if (it->second.empty()) s.lower.erase(it);
      }
      break;
    }
    case Kind::kUpper: {
      auto it = s.upper.find(conjunct->hi);
      if (it != s.upper.end()) {
        (conjunct->hi_strict ? it->second.strict : it->second.incl)
            .remove(handle, checks);
        if (it->second.empty()) s.upper.erase(it);
      }
      break;
    }
    case Kind::kRange:
      s.ranges = range_remove(std::move(s.ranges), conjunct->lo, handle);
      break;
    case Kind::kNever:
      break;
  }
  if (s.empty()) slots_.erase(sit);
}

// ---- probe ---------------------------------------------------------------

void PredicateIndex::probe(const comm::Tuple& tuple,
                           std::vector<Handle>* out) const {
  for (const auto& [slot, s] : slots_) {
    const device::Value& v = tuple.at(slot);
    if (const std::string* str = std::get_if<std::string>(&v)) {
      auto it = s.str_eq.find(*str);
      if (it != s.str_eq.end()) it->second.emit(tuple, out);
      continue;  // a string satisfies no numeric constraint
    }
    // Numeric coercion mirroring compare_values(): bool and int compare
    // as doubles; everything else (NULL, locations) never satisfies a
    // numeric constraint.
    double x;
    if (!device::value_as_double(v, &x) || std::isnan(x)) {
      // NULL / location / NaN: every comparison is false. (The NaN guard
      // also keeps std::map probes away from unordered keys.)
      continue;
    }
    // Point equality.
    if (auto it = s.eq.find(x); it != s.eq.end()) it->second.emit(tuple, out);
    // Lower bounds: every entry with key < x, plus inclusive ones at x.
    for (auto it = s.lower.begin(); it != s.lower.end() && it->first <= x;
         ++it) {
      it->second.incl.emit(tuple, out);
      if (it->first < x) it->second.strict.emit(tuple, out);
    }
    // Upper bounds: every entry with key > x, plus inclusive ones at x.
    for (auto it = s.upper.lower_bound(x); it != s.upper.end(); ++it) {
      it->second.incl.emit(tuple, out);
      if (it->first > x) it->second.strict.emit(tuple, out);
    }
    // Two-sided ranges.
    range_probe(s.ranges.get(), x, tuple, out);
  }
}

}  // namespace aorta::query
