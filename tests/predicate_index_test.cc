// Predicate index (query/predicate_index.h) unit + differential tests.
//
// The index answers "which registered AQ predicates might this tuple
// satisfy?" — a candidate *superset*: exactness is the compiler's
// business (IndexableConjunct::exact). These tests pin
//   1. each entry kind round-trips add -> probe -> remove,
//   2. the interval treap matches a brute-force scan under heavy churn
//      (and its shape is handle-deterministic, never pointer-dependent),
//   3. value coercion at probe time mirrors compare_values(): bool/int
//      compare as doubles, NULL / location / NaN satisfy nothing,
//      strings only reach string-equality buckets — on the primary slot
//      and in the checks on the other slots alike,
//   4. the compile pass keeps a constraint for every hinted slot, and an
//      entry is exact exactly when every event predicate is hinted,
//   5. a 10k+ generated-predicate differential: compiling random WHERE
//      clauses through the real parser + compile pass, inserting their
//      distilled conjuncts, and checking — over randomized tuples with
//      NULLs and degraded markers — that index-pruned evaluation fires
//      exactly the AQ set exhaustive evaluation fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"
#include "query/compile.h"
#include "query/parser.h"
#include "query/predicate_index.h"
#include "util/rng.h"

namespace aorta::query {
namespace {

using device::Value;
using Handle = PredicateIndex::Handle;

IndexableConjunct make(IndexableConjunct::Kind kind, std::uint32_t slot,
                       double lo, double hi, bool lo_strict = false,
                       bool hi_strict = false) {
  IndexableConjunct c;
  c.kind = kind;
  c.slot = slot;
  c.lo = lo;
  c.hi = hi;
  c.lo_strict = lo_strict;
  c.hi_strict = hi_strict;
  return c;
}

SlotCheck num_check(std::uint32_t slot, double lo, double hi,
                    bool lo_strict = false, bool hi_strict = false) {
  SlotCheck c;
  c.slot = slot;
  c.lo = lo;
  c.hi = hi;
  c.lo_strict = lo_strict;
  c.hi_strict = hi_strict;
  return c;
}

SlotCheck str_check(std::uint32_t slot, std::string str) {
  SlotCheck c;
  c.slot = slot;
  c.is_string = true;
  c.lo = -INFINITY;
  c.hi = INFINITY;
  c.str = std::move(str);
  return c;
}

comm::Schema two_slot_schema() {
  return comm::Schema("probe", {{"v", device::AttrType::kDouble, true},
                                {"name", device::AttrType::kString, false}});
}

std::vector<Handle> probe_sorted(const PredicateIndex& idx,
                                 const comm::Tuple& t) {
  std::vector<Handle> out;
  idx.probe(t, &out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PredicateIndexTest, EachKindRoundTripsAddProbeRemove) {
  comm::Schema schema = two_slot_schema();
  PredicateIndex idx;

  IndexableConjunct point = make(IndexableConjunct::Kind::kPointEq, 0, 5, 5);
  IndexableConjunct lower =
      make(IndexableConjunct::Kind::kLower, 0, 10, 0, /*lo_strict=*/true);
  IndexableConjunct lower_incl = make(IndexableConjunct::Kind::kLower, 0, 10, 0);
  IndexableConjunct upper =
      make(IndexableConjunct::Kind::kUpper, 0, 0, 3, false, /*hi_strict=*/true);
  IndexableConjunct range = make(IndexableConjunct::Kind::kRange, 0, 2, 4,
                                 /*lo_strict=*/false, /*hi_strict=*/true);
  IndexableConjunct never = make(IndexableConjunct::Kind::kNever, 0, 0, 0);
  IndexableConjunct streq = make(IndexableConjunct::Kind::kStrEq, 1, 0, 0);
  streq.str = "abc";

  idx.add(1, &point);
  idx.add(2, &lower);
  idx.add(3, &lower_incl);
  idx.add(4, &upper);
  idx.add(5, &range);
  idx.add(6, &never);
  idx.add(7, &streq);
  idx.add(8, nullptr);  // opaque predicate: residual list
  EXPECT_EQ(idx.size(), 8u);
  EXPECT_EQ(idx.residual_size(), 1u);
  EXPECT_EQ(idx.never_size(), 1u);
  ASSERT_EQ(idx.residuals().size(), 1u);
  EXPECT_EQ(idx.residuals()[0], 8u);

  comm::Tuple t(&schema, "d");
  t.set_by_name("v", Value{5.0});
  t.set_by_name("name", Value{std::string("abc")});
  // v == 5: point eq hits, strict > 10 misses, >= 10 misses, < 3 misses,
  // [2, 4) misses, string bucket hits via the other slot.
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 7}));

  t.set_by_name("v", Value{10.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{3, 7}));  // >= only
  t.set_by_name("v", Value{11.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{2, 3, 7}));
  t.set_by_name("v", Value{2.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{4, 5, 7}));
  t.set_by_name("v", Value{4.0});  // half-open range excludes its hi
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{7}));

  // Remove everything; the index must forget all of it.
  idx.remove(1, &point);
  idx.remove(2, &lower);
  idx.remove(3, &lower_incl);
  idx.remove(4, &upper);
  idx.remove(5, &range);
  idx.remove(6, &never);
  idx.remove(7, &streq);
  idx.remove(8, nullptr);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.residual_size(), 0u);
  EXPECT_EQ(idx.never_size(), 0u);
  t.set_by_name("v", Value{5.0});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
}

TEST(PredicateIndexTest, ProbeCoercionMirrorsCompareValues) {
  comm::Schema schema = two_slot_schema();
  PredicateIndex idx;
  IndexableConjunct lower = make(IndexableConjunct::Kind::kLower, 0, 0.5, 0);
  IndexableConjunct streq = make(IndexableConjunct::Kind::kStrEq, 0, 0, 0);
  streq.str = "1";
  idx.add(1, &lower);
  idx.add(2, &streq);

  comm::Tuple t(&schema, "d");
  // NULL satisfies nothing.
  EXPECT_TRUE(probe_sorted(idx, t).empty());
  // bool true coerces to 1.0 >= 0.5.
  t.set_by_name("v", Value{true});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1}));
  // int coerces too.
  t.set_by_name("v", Value{std::int64_t{3}});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1}));
  // A string value reaches only the string bucket — "1" is NOT 1.0.
  t.set_by_name("v", Value{std::string("1")});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{2}));
  // Locations never satisfy a scalar constraint.
  t.set_by_name("v", Value{device::Location{1, 2, 3}});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
  // NaN compares false against everything.
  t.set_by_name("v", Value{std::nan("")});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
}

TEST(PredicateIndexTest, ChecksOnOtherSlotsMirrorCompareValues) {
  comm::Schema schema("probe", {{"v", device::AttrType::kDouble, true},
                                {"w", device::AttrType::kDouble, true},
                                {"name", device::AttrType::kString, false}});
  const double inf = INFINITY;
  PredicateIndex idx;
  // Every entry but the last two is filed under v == 1; the checks make
  // the difference.
  IndexableConjunct gt2 = make(IndexableConjunct::Kind::kPointEq, 0, 1, 1);
  gt2.checks = {num_check(1, 2, inf, /*lo_strict=*/true)};  // w > 2
  IndexableConjunct gt2_twin = gt2;  // same checks: shares gt2's part
  IndexableConjunct in2to5 = make(IndexableConjunct::Kind::kPointEq, 0, 1, 1);
  in2to5.checks = {num_check(1, 2, 5)};  // 2 <= w <= 5
  IndexableConjunct lt5 = make(IndexableConjunct::Kind::kPointEq, 0, 1, 1);
  lt5.checks = {num_check(1, -inf, 5, false, /*hi_strict=*/true)};  // w < 5
  IndexableConjunct named = make(IndexableConjunct::Kind::kPointEq, 0, 1, 1);
  named.checks = {str_check(2, "abc")};
  IndexableConjunct named_w2 = make(IndexableConjunct::Kind::kPointEq, 0, 1, 1);
  named_w2.checks = {str_check(2, "abc"), num_check(1, 2, 2)};  // w == 2
  // A treap entry (0 <= v <= 10) and a string-bucket entry, each with a
  // check on another slot.
  IndexableConjunct range = make(IndexableConjunct::Kind::kRange, 0, 0, 10);
  range.checks = {num_check(1, 3, inf)};  // w >= 3
  IndexableConjunct by_name = make(IndexableConjunct::Kind::kStrEq, 2, 0, 0);
  by_name.str = "abc";
  by_name.checks = {num_check(0, 0.5, inf, /*lo_strict=*/true)};  // v > .5
  const std::vector<std::pair<Handle, const IndexableConjunct*>> entries = {
      {1, &gt2},   {2, &gt2_twin}, {3, &in2to5}, {4, &lt5},
      {5, &named}, {6, &named_w2}, {7, &range},  {8, &by_name}};
  for (const auto& [h, c] : entries) idx.add(h, c);

  comm::Tuple t(&schema, "d");
  t.set_by_name("v", Value{1.0});
  t.set_by_name("name", Value{std::string("abc")});
  // NULL, NaN, strings and locations on a checked numeric slot satisfy
  // none of its checks.
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{5, 8}));
  t.set_by_name("w", Value{std::nan("")});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{5, 8}));
  t.set_by_name("w", Value{std::string("3")});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{5, 8}));
  t.set_by_name("w", Value{device::Location{3, 3, 3}});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{5, 8}));
  // Strict vs inclusive at the constant: w == 2 fails `> 2`, passes
  // `>= 2`, `< 5` and `== 2`; w == 5 passes `> 2` and `<= 5`, fails `< 5`.
  t.set_by_name("w", Value{2.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{3, 4, 5, 6, 8}));
  t.set_by_name("w", Value{5.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 5, 7, 8}));
  // bool and int compare as doubles: true is 1, below every lower bound.
  t.set_by_name("w", Value{true});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{4, 5, 8}));
  t.set_by_name("w", Value{std::int64_t{3}});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 4, 5, 7, 8}));
  // A number, or NULL, on a checked string slot satisfies no string check.
  t.set_by_name("name", Value{3.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 4, 7}));
  t.set_by_name("name", Value{});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 4, 7}));
  t.set_by_name("name", Value{std::string("abd")});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 4, 7}));
  // The string bucket's numeric check follows the same coercion.
  t.set_by_name("name", Value{std::string("abc")});
  t.set_by_name("v", Value{true});  // 1.0: == 1, in [0, 10], > 0.5
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1, 2, 3, 4, 5, 7, 8}));
  // v == 0 reaches only the treap entry, whose check then decides.
  t.set_by_name("v", Value{std::int64_t{0}});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{7}));
  t.set_by_name("w", Value{2.5});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
  t.set_by_name("v", Value{std::nan("")});
  EXPECT_TRUE(probe_sorted(idx, t).empty());

  // Removing one twin leaves the other in the shared part.
  idx.remove(1, &gt2);
  t.set_by_name("v", Value{1.0});
  t.set_by_name("w", Value{5.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{2, 3, 5, 7, 8}));
  for (const auto& [h, c] : entries) {
    if (h != 1) idx.remove(h, c);
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(probe_sorted(idx, t).empty());
}

// Brute-force oracle for the interval treap: a flat list of ranges.
struct RangeOracle {
  struct Entry {
    Handle handle;
    IndexableConjunct c;
  };
  std::vector<Entry> entries;

  std::vector<Handle> probe(double x) const {
    std::vector<Handle> out;
    for (const auto& e : entries) {
      bool lo_ok = x > e.c.lo || (x == e.c.lo && !e.c.lo_strict);
      bool hi_ok = x < e.c.hi || (x == e.c.hi && !e.c.hi_strict);
      if (lo_ok && hi_ok) out.push_back(e.handle);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(PredicateIndexTest, IntervalTreapSurvivesChurnAgainstBruteForce) {
  comm::Schema schema = two_slot_schema();
  util::Rng rng(20260808);
  PredicateIndex idx;
  RangeOracle oracle;
  std::vector<std::unique_ptr<IndexableConjunct>> owned;
  Handle next = 1;

  comm::Tuple t(&schema, "d");
  auto check = [&] {
    for (int i = 0; i < 8; ++i) {
      double x = std::floor(rng.uniform(-4, 24) * 2.0) / 2.0;  // hits bounds
      t.set_by_name("v", Value{x});
      EXPECT_EQ(probe_sorted(idx, t), oracle.probe(x)) << "x=" << x;
    }
  };

  for (int round = 0; round < 200; ++round) {
    // Mostly inserts early, mostly removals late: full lifecycle.
    bool insert = oracle.entries.empty() ||
                  rng.uniform(0, 1) < (round < 120 ? 0.7 : 0.3);
    if (insert) {
      double a = std::floor(rng.uniform(0, 20));
      double b = a + std::floor(rng.uniform(0, 6));
      auto c = std::make_unique<IndexableConjunct>(
          make(IndexableConjunct::Kind::kRange, 0, a, b,
               rng.uniform(0, 1) < 0.5, rng.uniform(0, 1) < 0.5));
      idx.add(next, c.get());
      oracle.entries.push_back({next, *c});
      owned.push_back(std::move(c));
      ++next;
    } else {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<double>(oracle.entries.size())));
      pick = std::min(pick, oracle.entries.size() - 1);
      RangeOracle::Entry victim = oracle.entries[pick];
      idx.remove(victim.handle, &victim.c);
      oracle.entries.erase(oracle.entries.begin() +
                           static_cast<std::ptrdiff_t>(pick));
    }
    check();
  }
  // Drain completely; the slot map must empty out with it.
  while (!oracle.entries.empty()) {
    RangeOracle::Entry victim = oracle.entries.back();
    idx.remove(victim.handle, &victim.c);
    oracle.entries.pop_back();
  }
  EXPECT_EQ(idx.size(), 0u);
  t.set_by_name("v", Value{3.0});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
}

// ------------------------------------------------- generated differential

// Compiles randomized WHERE clauses through the real front end and checks
// indexed matching against exhaustive matching over randomized tuples.
struct IndexDiffFixture : public ::testing::Test {
  IndexDiffFixture()
      : loop(&clock),
        network(&loop, util::Rng(1)),
        registry(&network, &loop, util::Rng(2)) {
    (void)registry.register_type(devices::sensor_type_info());
    (void)registry.register_type(devices::camera_type_info());
  }

  util::Result<CompiledQuery> compile_where(const std::string& where) {
    auto stmt =
        parse("CREATE AQ g AS SELECT s.id FROM sensor s WHERE " + where);
    EXPECT_TRUE(stmt.is_ok()) << where;
    return compile(stmt.value().create_aq.select, catalog, registry,
                   /*one_shot=*/false);
  }

  util::SimClock clock;
  util::EventLoop loop;
  net::Network network;
  device::DeviceRegistry registry;
  Catalog catalog;
};

TEST_F(IndexDiffFixture, EveryHintedSlotIsCheckedAndExactNeedsEveryHint) {
  // Both predicates hinted: filed under the point (more selective), the
  // half-line rides along as a check, and candidacy proves a match.
  auto both = compile_where("s.accel_x > 500 AND s.hops = 2");
  ASSERT_TRUE(both.is_ok()) << both.status().to_string();
  ASSERT_TRUE(both.value().index_conjunct.has_value());
  const IndexableConjunct& c = *both.value().index_conjunct;
  EXPECT_EQ(c.kind, IndexableConjunct::Kind::kPointEq);
  EXPECT_EQ(c.slot, *both.value().schemas.at("s")->index_of("hops"));
  EXPECT_EQ(c.lo, 2.0);
  ASSERT_EQ(c.checks.size(), 1u);
  const SlotCheck& accel = c.checks[0];
  EXPECT_EQ(accel.slot, *both.value().schemas.at("s")->index_of("accel_x"));
  EXPECT_FALSE(accel.is_string);
  EXPECT_EQ(accel.lo, 500.0);
  EXPECT_TRUE(accel.lo_strict);
  EXPECT_EQ(accel.hi, INFINITY);
  EXPECT_FALSE(accel.hi_strict);
  EXPECT_TRUE(c.exact);

  // `!=` has no hint: the half-line is all the index knows, and the
  // residual program must still run.
  auto ne = compile_where("s.accel_x > 500 AND s.hops != 2");
  ASSERT_TRUE(ne.is_ok()) << ne.status().to_string();
  ASSERT_TRUE(ne.value().index_conjunct.has_value());
  const IndexableConjunct& d = *ne.value().index_conjunct;
  EXPECT_EQ(d.kind, IndexableConjunct::Kind::kLower);
  EXPECT_EQ(d.slot, *ne.value().schemas.at("s")->index_of("accel_x"));
  EXPECT_TRUE(d.checks.empty());
  EXPECT_FALSE(d.exact);
}

TEST_F(IndexDiffFixture, AStrictInfiniteBoundIsStillABound) {
  // `< 1e999` is `< +inf`: it excludes +inf itself, so the entry is a
  // range, not a half-line, and an infinite reading is no candidate.
  auto q = compile_where("s.accel_x > 5 AND s.accel_x < 1e999");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
  ASSERT_TRUE(q.value().index_conjunct.has_value());
  const IndexableConjunct& c = *q.value().index_conjunct;
  EXPECT_EQ(c.kind, IndexableConjunct::Kind::kRange);
  EXPECT_TRUE(c.exact);
  PredicateIndex idx;
  idx.add(1, &c);
  comm::Tuple t(q.value().schemas.at("s"), "m0");
  t.set_by_name("accel_x", Value{6.0});
  EXPECT_EQ(probe_sorted(idx, t), (std::vector<Handle>{1}));
  t.set_by_name("accel_x", Value{INFINITY});
  EXPECT_TRUE(probe_sorted(idx, t).empty());
  BindingFrame frame;
  frame.size = q.value().binding_aliases.size();
  frame.set(q.value().event_binding, &t);
  EXPECT_FALSE(q.value().event_programs[1].run_predicate(frame));
}

// Small palette so generated constants frequently collide with generated
// tuple values: the boundary cases (x == bound, strict vs inclusive) are
// where an index goes subtly wrong.
const double kNums[] = {-5, -1, 0, 0.5, 1, 2, 3, 5, 10, 42.5};
const char* kIds[] = {"m0", "m1", "m2", "zz"};
const char* kDoubleAttrs[] = {"accel_x", "accel_y", "light", "temp",
                              "battery_v"};
const char* kOps[] = {">", "<", ">=", "<=", "=", "!="};

std::string gen_conjunct(util::Rng& rng) {
  double roll = rng.uniform(0, 1);
  auto num = [&] {
    return std::to_string(kNums[static_cast<int>(rng.uniform(0, 10))]);
  };
  auto attr = [&] {
    return std::string("s.") + kDoubleAttrs[static_cast<int>(rng.uniform(0, 5))];
  };
  if (roll < 0.55) {  // indexable numeric comparison (!= stays residual)
    return attr() + " " + kOps[static_cast<int>(rng.uniform(0, 6))] + " " +
           num();
  }
  if (roll < 0.65) {  // const-on-the-left flavour
    return num() + " " + kOps[static_cast<int>(rng.uniform(0, 6))] + " " +
           attr();
  }
  if (roll < 0.75) {  // string equality / inequality on the id column
    return std::string("s.id ") + (rng.uniform(0, 1) < 0.7 ? "=" : "!=") +
           " '" + kIds[static_cast<int>(rng.uniform(0, 4))] + "'";
  }
  if (roll < 0.85) {  // int column, coerced comparison
    return "s.hops " + std::string(kOps[static_cast<int>(rng.uniform(0, 6))]) +
           " " + std::to_string(static_cast<int>(rng.uniform(0, 4)));
  }
  // Opaque arithmetic: no hint, residual-list entry.
  return "(" + attr() + " + " + attr() + ") > " + num();
}

TEST_F(IndexDiffFixture, TenThousandGeneratedPredicatesMatchExhaustive) {
  util::Rng rng(77);
  PredicateIndex idx;
  std::vector<std::unique_ptr<CompiledQuery>> queries;  // handle = index
  std::set<IndexableConjunct::Kind> kinds_seen;
  std::size_t residual_count = 0;
  std::size_t exact_multi_slot = 0;  // exact entries with checks
  std::size_t exact_mixed = 0;       // ... mixing string and numeric slots

  constexpr int kQueries = 10500;
  for (int i = 0; i < kQueries; ++i) {
    int n = 1 + static_cast<int>(rng.uniform(0, 3));
    std::string where = gen_conjunct(rng);
    for (int j = 1; j < n; ++j) where += " AND " + gen_conjunct(rng);
    // compile() lowers every predicate or fails, so the exhaustive oracle
    // below can run programs only.
    auto q = compile_where(where);
    ASSERT_TRUE(q.is_ok()) << where << ": " << q.status().to_string();
    auto owned = std::make_unique<CompiledQuery>(std::move(q.value()));
    ASSERT_EQ(owned->event_programs.size(), owned->event_predicates.size());
    const IndexableConjunct* c =
        owned->index_conjunct ? &*owned->index_conjunct : nullptr;
    if (c == nullptr) {
      ++residual_count;
    } else {
      kinds_seen.insert(c->kind);
      if (c->exact && !c->checks.empty()) {
        ++exact_multi_slot;
        bool primary_str = c->kind == IndexableConjunct::Kind::kStrEq;
        for (const SlotCheck& check : c->checks) {
          if (check.is_string != primary_str) {
            ++exact_mixed;
            break;
          }
        }
      }
    }
    idx.add(static_cast<Handle>(queries.size()), c);
    queries.push_back(std::move(owned));
  }
  ASSERT_GE(queries.size(), 10000u);
  // The generator must have exercised every entry kind plus the residual
  // list, and exact entries spanning several slots (string and numeric
  // ones mixed among them), or the differential below proves less than it
  // claims.
  EXPECT_GT(residual_count, 0u);
  EXPECT_GT(exact_multi_slot, 0u);
  EXPECT_GT(exact_mixed, 0u);
  for (auto kind :
       {IndexableConjunct::Kind::kNever, IndexableConjunct::Kind::kPointEq,
        IndexableConjunct::Kind::kStrEq, IndexableConjunct::Kind::kLower,
        IndexableConjunct::Kind::kUpper, IndexableConjunct::Kind::kRange}) {
    EXPECT_TRUE(kinds_seen.count(kind))
        << "kind " << static_cast<int>(kind) << " never generated";
  }

  // All queries share the catalog's sensor schema, which types every probe
  // tuple.
  const comm::Schema* schema = queries[0]->schemas.at("s");
  ASSERT_EQ(schema->table_name(), "sensor");

  for (int trial = 0; trial < 60; ++trial) {
    comm::Tuple t(schema, kIds[static_cast<int>(rng.uniform(0, 4))]);
    for (const auto& f : schema->fields()) {
      if (rng.uniform(0, 1) < 0.2) continue;  // leave NULL
      switch (f.type) {
        case device::AttrType::kString:
          t.set_by_name(f.name,
                        Value{std::string(
                            kIds[static_cast<int>(rng.uniform(0, 4))])});
          break;
        case device::AttrType::kInt:
          t.set_by_name(f.name, Value{static_cast<std::int64_t>(
                                    rng.uniform(0, 4))});
          break;
        case device::AttrType::kDouble:
          t.set_by_name(f.name,
                        Value{kNums[static_cast<int>(rng.uniform(0, 10))]});
          break;
        default:
          break;  // locations stay NULL
      }
    }
    // Degraded tuples (stale-cache fills after partial read failures) are
    // matched like any other row; the marker must not perturb candidacy.
    if (trial % 5 == 0) t.set_degraded(true);

    std::vector<Handle> cands;
    idx.probe(t, &cands);
    std::sort(cands.begin(), cands.end());

    BindingFrame frame;
    for (std::size_t h = 0; h < queries.size(); ++h) {
      const CompiledQuery& q = *queries[h];
      frame.size = q.binding_aliases.size();
      frame.set(q.event_binding, &t);
      auto run_all = [&] {
        for (const auto& p : q.event_programs) {
          if (!p.run_predicate(frame)) return false;
        }
        return true;
      };
      bool exhaustive = run_all();
      bool indexed;
      if (!q.index_conjunct) {
        indexed = run_all();  // residual list: always evaluated
      } else if (!std::binary_search(cands.begin(), cands.end(),
                                     static_cast<Handle>(h))) {
        indexed = false;  // pruned
      } else {
        indexed = q.index_conjunct->exact ? true : run_all();
      }
      ASSERT_EQ(indexed, exhaustive)
          << "query " << h << " degraded=" << t.degraded();
    }
  }

  // Tear the whole population down in shuffled order: the index must
  // return to empty, exercising removal across every kind at scale.
  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<double>(i)));
    j = std::min(j, i - 1);
    std::swap(order[i - 1], order[j]);
  }
  for (std::size_t h : order) {
    const CompiledQuery& q = *queries[h];
    idx.remove(static_cast<Handle>(h),
               q.index_conjunct ? &*q.index_conjunct : nullptr);
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.residual_size(), 0u);
  EXPECT_EQ(idx.never_size(), 0u);
}

}  // namespace
}  // namespace aorta::query
