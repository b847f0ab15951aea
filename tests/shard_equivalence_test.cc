// Sharding must not change what the system computes, and must not cost
// determinism: (1) two same-seed runs at num_shards=4 produce
// byte-identical metrics and trace exports — the merger's (timestamp,
// shard, arrival) order makes cross-shard interleavings canonical; and
// (2) the delivered continuous-row events are identical between
// num_shards=1 and num_shards=4 on a 32-AQ workload over a lossless
// device fabric (the hash partition changes *where* fragments run, not
// *what* they produce); and (3) so are the events and SELECT results of
// point statements, which the czar sends only to the shards owning their
// devices (shard pruning); and (4) a GROUP BY window aggregate delivers
// one row per group through the plane, as the unsharded engine does, also
// when its select list leaves the group column out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/aorta.h"
#include "server/service.h"
#include "server/session.h"
#include "shard/plane.h"

namespace aorta {
namespace {

using server::Delivery;
using server::QueryService;
using server::ServiceConfig;
using server::SessionId;
using shard::Plane;
using util::Duration;
using util::TimePoint;

// Exact rendering of a delivered row value (%.17g doubles: the same
// precision contract as the fragment codec).
std::string value_key(const device::Value& v) {
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

// A delivery's rows and degraded marker.
std::string rows_key(const Delivery& d) {
  std::string key;
  for (const query::Row& row : d.rows) {
    for (const auto& [name, value] : row) {
      key += "|" + name + "=" + value_key(value);
    }
  }
  key += d.degraded ? "|degraded" : "";
  return key;
}

// One delivered row event, keyed by (query, epoch index, values,
// degraded marker). The epoch index — not the raw timestamp — is the
// comparison key: a row's `at` is the instant its epoch scan completed,
// which can shift by network-latency noise (milliseconds) when the
// device set is split across differently-sized shards, while the epoch
// it belongs to cannot.
std::string event_key(const Delivery& d) {
  return d.query + "@" + std::to_string(d.at.to_micros() / 1000000) +
         rows_key(d);
}

// The shared world: eight motes with staggered periodic accel spikes and
// distinct constant temps, on lossless zero-jitter links (so the RNG —
// whose fork order legitimately differs with the worker count — cannot
// influence any observable value).
void build_world(QueryService& service, core::Aorta& sys) {
  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    devices::Mica2Mote* mote = service.plane()->mote(id);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(15.0 + i));
    (void)mote->set_signal(
        "accel_x",
        devices::periodic_spike_signal(0.0, 900.0, Duration::seconds(4.0),
                                       Duration::seconds(1.2),
                                       Duration::seconds(0.5 * i)));
    (void)sys.network().set_link(id, shard::backplane_link());
  }
}

// 32 AQs with varying selectivity: 16 temp thresholds (edge-triggered —
// each fires once per matching mote) + 16 spike watchers (re-fire on
// every spike edge).
void submit_workload(QueryService& service, SessionId id) {
  for (int k = 0; k < 16; ++k) {
    std::string sql = "CREATE AQ temp" + std::to_string(k) +
                      " AS SELECT s.temp FROM sensor s WHERE s.temp > " +
                      std::to_string(10 + k);
    ASSERT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
  for (int k = 0; k < 16; ++k) {
    std::string sql = "CREATE AQ spike" + std::to_string(k) +
                      " AS SELECT s.accel_x, s.temp FROM sensor s "
                      "WHERE s.accel_x > " +
                      std::to_string(100 + 50 * k);
    ASSERT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
}

// Point statements: each pins device ids with `s.id = '...'`. Level- and
// edge-triggered point AQs, a two-id OR, global and GROUP BY point
// aggregates, and point one-shot SELECTs (a projection and an aggregate).
void submit_point_workload(QueryService& service, SessionId id) {
  for (const char* sql : {
           "CREATE AQ level AS SELECT s.id, s.temp FROM sensor s "
           "WHERE s.id = 'm3'",
           "CREATE AQ edge AS SELECT s.id, s.accel_x FROM sensor s "
           "WHERE s.id = 'm5' AND s.accel_x > 300",
           "CREATE AQ either AS SELECT s.id, s.accel_x FROM sensor s "
           "WHERE s.accel_x > 300 AND (s.id = 'm1' OR s.id = 'm6')",
           "CREATE AQ global AS SELECT avg(s.temp), count(*), "
           "max(s.accel_x) FROM sensor s WHERE s.id = 'm2' WINDOW 2s",
           "CREATE AQ grouped AS SELECT s.id, count(*), max(s.accel_x) "
           "FROM sensor s WHERE s.id = 'm4' OR s.id = 'm7' "
           "GROUP BY s.id WINDOW 4s EVERY 2s",
           "SELECT s.id, s.temp FROM sensor s WHERE s.id = 'm3'",
           "SELECT count(*), avg(s.temp) FROM sensor s WHERE s.id = 'm6'",
       }) {
    ASSERT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
}

struct RunOutput {
  std::multiset<std::string> events;  // delivered row keys, at < cutoff
  // Statement results by statement id: message, rows, and for one-shot
  // SELECTs shards answered / total.
  std::map<std::uint64_t, std::string> results;
  std::uint64_t fragments_pruned = 0;
  std::string stats_json;
  std::string trace_json;
};

RunOutput run_workload(int num_shards, std::uint64_t seed, double run_s,
                       double cutoff_s,
                       void (*submit)(QueryService&, SessionId) =
                           submit_workload) {
  core::Config config;
  config.seed = seed;
  config.tracing = true;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = num_shards;
  cfg.mailbox_capacity = 1 << 20;  // keep every delivery for comparison
  QueryService service(&sys, cfg);
  build_world(service, sys);
  SessionId id = service.connect("acme");
  submit(service, id);
  sys.run_for(Duration::seconds(run_s));

  RunOutput out;
  for (const Delivery& d : service.session(id)->drain()) {
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
    if (d.kind == Delivery::Kind::kResult) {
      // Not the completion instant: a one-shot SELECT's sweep takes
      // longer on a shard with more devices.
      out.results[d.statement_id] =
          d.message + " shards " + std::to_string(d.shards_answered) + "/" +
          std::to_string(d.shards_total) + rows_key(d);
      continue;
    }
    if (d.kind != Delivery::Kind::kRow) continue;
    // Ignore the tail the merge frontier may still be holding back: rows
    // released only after the next heartbeat would make the comparison
    // depend on where the run is cut, not on what was computed.
    if (d.at > TimePoint() + Duration::seconds(cutoff_s)) continue;
    out.events.insert(event_key(d));
  }
  out.fragments_pruned =
      sys.metrics().counter_value("shard.czar.fragments_pruned");
  out.stats_json = service.stats_json();
  out.trace_json = sys.trace_json();  // merged across all segment tracers
  return out;
}

TEST(ShardEquivalenceTest, SameSeedRunsAreByteIdenticalAtFourShards) {
  RunOutput a = run_workload(4, 7, 12.0, 12.0);
  RunOutput b = run_workload(4, 7, 12.0, 12.0);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.events.empty());
}

TEST(ShardEquivalenceTest, DeliveredEventsMatchBetweenOneAndFourShards) {
  // Different seeds on purpose: equivalence must come from the lossless
  // world, not from accidentally identical random streams.
  RunOutput one = run_workload(1, 11, 20.0, 15.0);
  RunOutput four = run_workload(4, 13, 20.0, 15.0);

  ASSERT_FALSE(one.events.empty());
  // Every spike edge re-fires all 16 spike AQs on that mote, and every
  // temp AQ fires once per matching mote: 15 sim seconds is hundreds of
  // delivered rows.
  EXPECT_GT(one.events.size(), 400u);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.results, four.results);
}

TEST(ShardEquivalenceTest, PointStatementsMatchBetweenOneAndFourShards) {
  RunOutput one = run_workload(1, 11, 20.0, 15.0, submit_point_workload);
  RunOutput four = run_workload(4, 13, 20.0, 15.0, submit_point_workload);

  // Every statement ran to completion, and every AQ delivered rows.
  ASSERT_EQ(one.results.size(), 7u);
  for (const char* aq : {"level@", "edge@", "either@", "global@",
                         "grouped@"}) {
    const std::string prefix = std::string("s1/") + aq;
    EXPECT_TRUE(std::any_of(one.events.begin(), one.events.end(),
                            [&prefix](const std::string& e) {
                              return e.rfind(prefix, 0) == 0;
                            }))
        << prefix;
  }
  EXPECT_EQ(one.events, four.events);
  // Results carry shards answered/total: a one-id SELECT reports 1/1 at
  // four shards too.
  EXPECT_EQ(one.results, four.results);
  EXPECT_EQ(one.fragments_pruned, 0u);
  // Five one-id statements skip three shards each; the OR statements skip
  // two or three.
  EXPECT_GE(four.fragments_pruned, 5u * 3u + 2u * 2u);
}

// Six motes over hops 1-3 with distinct constant temps on lossless links,
// two per hop depth, on the unsharded engine (no plane) or the plane.
void build_grouped_world(QueryService& service, core::Aorta& sys) {
  Plane* plane = service.plane();
  for (int i = 0; i < 6; ++i) {
    const std::string id = "g" + std::to_string(i);
    const device::Location loc{double(i), 0, 1};
    const int hops = 1 + i % 3;
    ASSERT_TRUE((plane != nullptr ? plane->add_mote(id, loc, hops)
                                  : sys.add_mote(id, loc, hops))
                    .is_ok());
    devices::Mica2Mote* mote =
        plane != nullptr ? plane->mote(id) : sys.mote(id);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(10.0 + i));
    ASSERT_TRUE(sys.network().set_link(id, shard::backplane_link()).is_ok());
  }
}

std::multiset<std::string> run_grouped(int num_shards) {
  core::Config config;
  config.seed = 5;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = num_shards;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);
  build_grouped_world(service, sys);
  SessionId id = service.connect("acme");
  EXPECT_TRUE(service
                  .submit(id,
                          "CREATE AQ grouped AS SELECT avg(s.temp), count(*) "
                          "FROM sensor s GROUP BY s.hops WINDOW 2s")
                  .is_ok());
  sys.run_for(Duration::seconds(12.0));
  std::multiset<std::string> events;
  for (const Delivery& d : service.session(id)->drain()) {
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
    if (d.kind != Delivery::Kind::kRow) continue;
    if (d.at > TimePoint() + Duration::seconds(10.0)) continue;
    events.insert(event_key(d));
  }
  return events;
}

TEST(ShardEquivalenceTest, GroupedAggregateWithoutItsGroupColumnMatches) {
  const std::multiset<std::string> unsharded = run_grouped(0);
  // Every 2-sample window delivers one row per hop depth: two motes'
  // mean temp over four readings.
  ASSERT_GE(unsharded.size(), 12u);
  EXPECT_EQ(unsharded.size() % 3, 0u);
  for (const char* group : {"|avg(s.temp)=11.5|count(*)=4",
                            "|avg(s.temp)=12.5|count(*)=4",
                            "|avg(s.temp)=13.5|count(*)=4"}) {
    EXPECT_EQ(std::count_if(unsharded.begin(), unsharded.end(),
                            [group](const std::string& e) {
                              return e.ends_with(group);
                            }),
              static_cast<std::ptrdiff_t>(unsharded.size() / 3))
        << group;
  }
  EXPECT_EQ(run_grouped(1), unsharded);
  EXPECT_EQ(run_grouped(4), unsharded);
}

}  // namespace
}  // namespace aorta
