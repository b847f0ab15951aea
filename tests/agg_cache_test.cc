// Tests for continuous windowed aggregates and the query-hash
// shared-aggregate cache (DESIGN.md §15, src/query/agg_cache.h):
//
//  - window/GROUP BY grammar and the shape rules (windows must divide the
//    epoch cadence, projections must aggregate or group, one-shot SELECT
//    keeps rejecting GROUP BY/WINDOW);
//  - tumbling/sliding emission values against hand-computed expectations;
//  - sharing: co-hashed AQs hit one entry, GROUP BY subsets attach as
//    subsumed groupings, incompatible groupings split the hash bucket;
//  - the `Config::aggregate_cache = false` ablation is byte-identical in
//    delivered events while paying N× the per-tuple evaluations;
//  - determinism: the sharded service emits byte-identical window rows at
//    1/2/8 runtime threads, cache on or off;
//  - churn: register/drop 1k hashed-identical AQs leaves no entry,
//    subscription or group-state debris behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "core/aorta.h"
#include "server/service.h"
#include "server/session.h"
#include "shard/plane.h"

namespace aorta {
namespace {

using device::Value;
using server::Delivery;
using server::QueryService;
using server::ServiceConfig;
using server::SessionId;
using shard::Plane;
using util::Duration;
using util::TimePoint;

std::string value_key(const Value& v) {
  char buf[96];
  if (std::holds_alternative<std::monostate>(v)) return "null";
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  if (const std::string* s = std::get_if<std::string>(&v)) return *s;
  const auto& loc = std::get<device::Location>(v);
  std::snprintf(buf, sizeof(buf), "(%.17g,%.17g,%.17g)", loc.x, loc.y, loc.z);
  return buf;
}

std::string row_key(const query::TimestampedRow& r) {
  std::string key = std::to_string(r.at.to_micros());
  for (const auto& [name, value] : r.row) {
    key += "|" + name + "=" + value_key(value);
  }
  if (r.degraded) key += "|degraded";
  return key;
}

double as_double(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  ADD_FAILURE() << "value is not numeric";
  return 0.0;
}

// Two buildings (hops 1 and 2) of lossless constant-temperature motes:
// hops-1 motes read 20.0 and 24.0, the hops-2 mote reads 30.0. One sample
// per mote per 1s epoch, so window arithmetic is exact.
struct AggWorld : public ::testing::Test {
  static core::Config config_with_seed(std::uint64_t seed) {
    core::Config config;
    config.seed = seed;
    return config;
  }

  AggWorld() : sys(config_with_seed(11)) { setup(sys); }

  static void setup(core::Aorta& s) {
    add(s, "m1", 1, 20.0);
    add(s, "m2", 1, 24.0);
    add(s, "m3", 2, 30.0);
  }
  static void add(core::Aorta& s, const std::string& id, int hops,
                  double temp) {
    ASSERT_TRUE(s.add_mote(id, {double(hops), 0, 1}, hops).is_ok());
    s.mote(id)->reliability().glitch_prob = 0.0;
    (void)s.mote(id)->set_signal("temp", devices::constant_signal(temp));
    (void)s.mote(id)->set_signal("light", devices::constant_signal(100.0));
    auto link = net::LinkModel::mote_radio();
    link.loss_prob = 0.0;
    (void)s.network().set_link(id, link);
  }

  core::Aorta sys;
};

// ------------------------------------------------------------ shape rules

TEST_F(AggWorld, WindowGrammarAcceptsSecondSuffixAndDefaultsToTumbling) {
  EXPECT_TRUE(sys.exec("CREATE AQ a AS SELECT avg(s.temp) FROM sensor s "
                       "GROUP BY s.hops WINDOW 4s EVERY 2s")
                  .is_ok());
  // WINDOW without EVERY tumbles (slide == window).
  EXPECT_TRUE(sys.exec("CREATE AQ b AS SELECT sum(s.temp) FROM sensor s "
                       "WINDOW 3")
                  .is_ok());
  EXPECT_EQ(sys.executor().agg_subscribers(), 2u);
}

TEST_F(AggWorld, WindowMustDivideEpochAndSlide) {
  auto bad_epoch = sys.exec(
      "CREATE AQ a AS SELECT avg(s.temp) FROM sensor s WINDOW 2.5s");
  ASSERT_FALSE(bad_epoch.is_ok());
  EXPECT_NE(bad_epoch.status().message().find("multiple of the AQ epoch"),
            std::string::npos);

  auto bad_slide = sys.exec(
      "CREATE AQ b AS SELECT avg(s.temp) FROM sensor s WINDOW 3s EVERY 2s");
  ASSERT_FALSE(bad_slide.is_ok());
  EXPECT_NE(bad_slide.status().message().find("multiple of EVERY"),
            std::string::npos);
}

TEST_F(AggWorld, ProjectionsMustAggregateOrGroup) {
  // A plain column next to an aggregate is ambiguous per group.
  auto mixed = sys.exec(
      "CREATE AQ a AS SELECT avg(s.temp), s.id FROM sensor s GROUP BY s.hops");
  ASSERT_FALSE(mixed.is_ok());
  EXPECT_NE(mixed.status().message().find("GROUP BY column"),
            std::string::npos);

  // GROUP BY / WINDOW without any aggregate projection.
  auto no_agg = sys.exec(
      "CREATE AQ b AS SELECT s.temp FROM sensor s GROUP BY s.hops");
  EXPECT_FALSE(no_agg.is_ok());
  auto no_agg_w =
      sys.exec("CREATE AQ c AS SELECT s.temp FROM sensor s WINDOW 2s");
  EXPECT_FALSE(no_agg_w.is_ok());
}

TEST_F(AggWorld, OneShotSelectStillRejectsGroupByAndWindow) {
  auto grouped =
      sys.exec("SELECT avg(s.temp) FROM sensor s GROUP BY s.hops");
  ASSERT_FALSE(grouped.is_ok());
  EXPECT_NE(grouped.status().message().find("continuous"), std::string::npos);
  EXPECT_FALSE(
      sys.exec("SELECT avg(s.temp) FROM sensor s WINDOW 2s").is_ok());
}

// -------------------------------------------------------- window values

TEST_F(AggWorld, TumblingWindowValuesAreExact) {
  // 4-sample tumbling window, grouped by building: the hops-1 group sees
  // 2 motes x 4 samples (count 8, avg 22), the hops-2 group 1 mote x 4
  // (count 4, avg 30).
  ASSERT_TRUE(sys.exec("CREATE AQ w AS SELECT s.hops, count(*), avg(s.temp), "
                       "min(s.temp), max(s.temp), sum(s.temp) "
                       "FROM sensor s GROUP BY s.hops WINDOW 4s")
                  .is_ok());
  sys.run_for(Duration::seconds(20));

  auto rows = sys.executor().recent_results("w");
  ASSERT_GE(rows.size(), 4u);
  // The last two rows are one full window's two groups (group-key order).
  const auto& g1 = rows[rows.size() - 2];
  const auto& g2 = rows[rows.size() - 1];
  ASSERT_EQ(g1.row.size(), 6u);
  EXPECT_EQ(g1.row[0].first, "s.hops");
  EXPECT_EQ(g1.row[1].first, "count(*)");
  EXPECT_EQ(g1.row[2].first, "avg(s.temp)");

  EXPECT_EQ(as_double(g1.row[0].second), 1.0);
  EXPECT_EQ(as_double(g1.row[1].second), 8.0);
  EXPECT_EQ(as_double(g1.row[2].second), 22.0);
  EXPECT_EQ(as_double(g1.row[3].second), 20.0);
  EXPECT_EQ(as_double(g1.row[4].second), 24.0);
  EXPECT_EQ(as_double(g1.row[5].second), 176.0);

  EXPECT_EQ(as_double(g2.row[0].second), 2.0);
  EXPECT_EQ(as_double(g2.row[1].second), 4.0);
  EXPECT_EQ(as_double(g2.row[2].second), 30.0);
  EXPECT_EQ(as_double(g2.row[5].second), 120.0);
}

TEST_F(AggWorld, SlidingWindowEmitsEverySlideAndExpiresOldPanes) {
  // A spike rides accel_x for ~1 sample; a 3-sample window sliding by 1
  // must hold max() at the spike for as long as the spike's pane is inside
  // the window, then fall back to the base signal — the monotonic-deque
  // expiry path.
  auto script = std::make_unique<devices::ScriptedSignal>(0.0);
  script->add_spike(TimePoint::from_micros(8'000'000), Duration::seconds(1),
                    700.0);
  ASSERT_TRUE(sys.mote("m1")->set_signal("accel_x", std::move(script)).is_ok());
  ASSERT_TRUE(sys.exec("CREATE AQ w AS SELECT max(s.accel_x) FROM sensor s "
                       "WHERE s.id = 'm1' WINDOW 3s EVERY 1s")
                  .is_ok());
  sys.run_for(Duration::seconds(20));

  auto rows = sys.executor().recent_results("w");
  ASSERT_GE(rows.size(), 10u);
  int spiked = 0;
  for (const auto& r : rows) spiked += as_double(r.row[0].second) == 700.0;
  // The spike lands in 1-2 samples; each spiked sample stays in scope for
  // 3 sliding windows.
  EXPECT_GE(spiked, 3);
  EXPECT_LE(spiked, 6);
  // After the spike's panes expire the extremum falls back to the base.
  EXPECT_EQ(as_double(rows.back().row[0].second), 0.0);
}

// ----------------------------------------------------------- sharing

TEST_F(AggWorld, CoHashedTenantsShareOneEntry) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys.exec("CREATE AQ t" + std::to_string(i) +
                         " AS SELECT avg(s.temp) FROM sensor s "
                         "GROUP BY s.hops WINDOW 4s EVERY 2s")
                    .is_ok());
  }
  EXPECT_EQ(sys.executor().agg_entries(), 1u);
  EXPECT_EQ(sys.executor().agg_subscribers(), 10u);
  const auto& stats = sys.executor().agg_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 9u);
  EXPECT_EQ(stats.subsumptions, 0u);

  sys.run_for(Duration::seconds(10));
  // One evaluation per (entry, tuple) regardless of tenant count: strictly
  // fewer evaluations than emitted rows x tuples would suggest.
  EXPECT_GT(sys.executor().agg_stats().tuples_evaluated, 0u);
  auto r0 = sys.executor().recent_results("t0");
  auto r9 = sys.executor().recent_results("t9");
  ASSERT_FALSE(r0.empty());
  ASSERT_EQ(r0.size(), r9.size());
  for (std::size_t i = 0; i < r0.size(); ++i) {
    EXPECT_EQ(row_key(r0[i]), row_key(r9[i]));
  }
}

TEST_F(AggWorld, GroupBySubsetSubsumesUnderTheSameEntry) {
  ASSERT_TRUE(sys.exec("CREATE AQ by_floor AS SELECT avg(s.temp) "
                       "FROM sensor s GROUP BY s.hops WINDOW 4s EVERY 2s")
                  .is_ok());
  // Same hash (GROUP BY is excluded from it), coarser grouping {} — its
  // columns are a subset of the entry's subscribed attributes.
  ASSERT_TRUE(sys.exec("CREATE AQ overall AS SELECT avg(s.temp) "
                       "FROM sensor s WINDOW 4s EVERY 2s")
                  .is_ok());
  EXPECT_EQ(sys.executor().agg_entries(), 1u);
  EXPECT_EQ(sys.executor().agg_stats().subsumptions, 1u);

  // GROUP BY a column outside the entry's subscription can't subsume: it
  // becomes a second entry in the same hash bucket.
  ASSERT_TRUE(sys.exec("CREATE AQ by_mote AS SELECT avg(s.temp) "
                       "FROM sensor s GROUP BY s.id WINDOW 4s EVERY 2s")
                  .is_ok());
  EXPECT_EQ(sys.executor().agg_entries(), 2u);
  EXPECT_EQ(sys.executor().agg_stats().misses, 2u);

  sys.run_for(Duration::seconds(12));
  auto by_floor = sys.executor().recent_results("by_floor");
  auto overall = sys.executor().recent_results("overall");
  ASSERT_FALSE(by_floor.empty());
  ASSERT_FALSE(overall.empty());
  // The subsumed AQ computes over all three motes: avg = 74/3.
  EXPECT_NEAR(as_double(overall.back().row[0].second), 74.0 / 3.0, 1e-12);
}

// -------------------------------------------------------- ablation parity

TEST(AggCacheAblationTest, CacheOffIsByteIdenticalButPaysPerTenant) {
  auto run = [](bool cache_on) {
    core::Config config = AggWorld::config_with_seed(19);
    config.aggregate_cache = cache_on;
    core::Aorta sys(config);
    AggWorld::setup(sys);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(sys.exec("CREATE AQ t" + std::to_string(i) +
                           " AS SELECT avg(s.temp), count(*) FROM sensor s "
                           "GROUP BY s.hops WINDOW 4s EVERY 2s")
                      .is_ok());
    }
    sys.run_for(Duration::seconds(16));
    std::vector<std::string> events;
    for (int i = 0; i < 8; ++i) {
      for (const auto& r :
           sys.executor().recent_results("t" + std::to_string(i))) {
        events.push_back("t" + std::to_string(i) + "@" + row_key(r));
      }
    }
    return std::make_pair(events, sys.executor().agg_stats().tuples_evaluated);
  };

  auto [on_events, on_evals] = run(true);
  auto [off_events, off_evals] = run(false);
  ASSERT_FALSE(on_events.empty());
  EXPECT_EQ(on_events, off_events);
  // 8 private entries each evaluate every tuple; the shared entry does it
  // once. Exactly 8x here since every AQ is hash-identical.
  EXPECT_EQ(off_evals, 8 * on_evals);
}

// ------------------------------------------------------------- churn

TEST_F(AggWorld, ThousandTenantChurnLeavesNoDebris) {
  sys.run_for(Duration::seconds(2));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sys.exec("CREATE AQ c" + std::to_string(i) +
                         " AS SELECT avg(s.light) FROM sensor s "
                         "GROUP BY s.hops WINDOW 6s EVERY 3s")
                    .is_ok());
  }
  EXPECT_EQ(sys.executor().agg_entries(), 1u);
  EXPECT_EQ(sys.executor().agg_subscribers(), 1000u);
  EXPECT_EQ(sys.executor().agg_stats().misses, 1u);
  EXPECT_EQ(sys.executor().agg_stats().hits, 999u);

  sys.run_for(Duration::seconds(4));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sys.exec("DROP AQ c" + std::to_string(i)).is_ok());
  }
  // The churn guarantee: the last detach tears down the entry, its broker
  // subscription and every group accumulator.
  EXPECT_EQ(sys.executor().agg_entries(), 0u);
  EXPECT_EQ(sys.executor().agg_subscribers(), 0u);
  EXPECT_EQ(sys.metrics().gauge_value("broker.agg_cache.live_windows"), 0);
  sys.run_for(Duration::seconds(4));  // no stale callbacks fire
}

// --------------------------------------------------------- determinism

std::vector<std::string> run_sharded_agg(int runtime_threads,
                                         bool aggregate_cache,
                                         std::uint64_t seed) {
  core::Config config;
  config.seed = seed;
  config.runtime_threads = runtime_threads;
  config.aggregate_cache = aggregate_cache;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 4;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);

  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    EXPECT_TRUE(
        service.plane()->add_mote(id, {double(i), 0, 1}, 1 + i % 3).is_ok());
    devices::Mica2Mote* mote = service.plane()->mote(id);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(15.0 + i));
    (void)sys.network().set_link(id, shard::backplane_link());
  }

  SessionId id = service.connect("acme");
  for (int k = 0; k < 6; ++k) {
    EXPECT_TRUE(service
                    .submit(id, "CREATE AQ agg" + std::to_string(k) +
                                    " AS SELECT s.hops, avg(s.temp), count(*) "
                                    "FROM sensor s GROUP BY s.hops "
                                    "WINDOW 4s EVERY 2s")
                    .is_ok());
  }
  EXPECT_TRUE(service
                  .submit(id, "CREATE AQ total AS SELECT sum(s.temp) "
                              "FROM sensor s WINDOW 3s")
                  .is_ok());
  sys.run_for(Duration::seconds(14.0));

  std::vector<std::string> events;
  for (const Delivery& d : service.session(id)->drain()) {
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
    if (d.kind != Delivery::Kind::kRow) continue;
    std::string key = d.query + "@" + std::to_string(d.at.to_micros());
    for (const query::Row& row : d.rows) {
      for (const auto& [name, value] : row) {
        key += "|" + name + "=" + value_key(value);
      }
    }
    events.push_back(key);
  }
  return events;
}

TEST(AggCacheDeterminismTest, ShardedWindowsAreByteIdenticalAcrossThreads) {
  std::vector<std::string> one = run_sharded_agg(1, true, 42);
  std::vector<std::string> two = run_sharded_agg(2, true, 42);
  std::vector<std::string> eight = run_sharded_agg(8, true, 42);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(AggCacheDeterminismTest, AblationMatchesShardedCacheByteForByte) {
  std::vector<std::string> cached = run_sharded_agg(2, true, 42);
  std::vector<std::string> ablated = run_sharded_agg(2, false, 42);
  ASSERT_FALSE(cached.empty());
  EXPECT_EQ(cached, ablated);
}

}  // namespace
}  // namespace aorta
