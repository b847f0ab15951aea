// The parallel runtime must not cost determinism: a fixed-seed run of a
// sharded workload produces byte-identical delivered events, metrics JSON
// and merged trace exports whether the per-shard loops are stepped by 1, 2
// or 8 OS threads. The epoch-barrier schedule is derived from virtual time
// only (window = min(barrier, earliest event + quantum)), cross-loop
// deliveries flush in (timestamp, source loop, sequence) order, and every
// wall-clock-dependent gauge (thread count, barrier stall histograms) is
// marked volatile and excluded from the deterministic snapshot — so the
// thread count can change nothing observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
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

// Unlike the shard-equivalence test this key carries the *exact* delivery
// microsecond: same seed + same shard count must mean the same virtual
// instants, independent of the thread count.
std::string event_key(const Delivery& d) {
  std::string key = d.query;
  key += "@" + std::to_string(d.at.to_micros());
  for (const query::Row& row : d.rows) {
    for (const auto& [name, value] : row) {
      key += "|" + name + "=" + value_key(value);
    }
  }
  key += d.degraded ? "|degraded" : "";
  return key;
}

struct RunOutput {
  std::vector<std::string> events;  // delivered rows, in delivery order
  std::string stats_json;
  std::string metrics_json;
  std::string trace_json;
};

RunOutput run_workload(int runtime_threads, std::uint64_t seed,
                       const std::string& fault_plan_xml = "") {
  core::Config config;
  config.seed = seed;
  config.tracing = true;
  config.runtime_threads = runtime_threads;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 8;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);

  for (int i = 0; i < 12; ++i) {
    std::string id = "m" + std::to_string(i);
    EXPECT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    devices::Mica2Mote* mote = service.plane()->mote(id);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(15.0 + i));
    (void)mote->set_signal(
        "accel_x",
        devices::periodic_spike_signal(0.0, 900.0, Duration::seconds(3.0),
                                       Duration::seconds(1.0),
                                       Duration::seconds(0.25 * i)));
    (void)sys.network().set_link(id, shard::backplane_link());
  }

  SessionId id = service.connect("acme");
  for (int k = 0; k < 8; ++k) {
    std::string sql = "CREATE AQ temp" + std::to_string(k) +
                      " AS SELECT s.temp FROM sensor s WHERE s.temp > " +
                      std::to_string(12 + 2 * k);
    EXPECT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
  for (int k = 0; k < 8; ++k) {
    std::string sql = "CREATE AQ spike" + std::to_string(k) +
                      " AS SELECT s.accel_x, s.temp FROM sensor s "
                      "WHERE s.accel_x > " +
                      std::to_string(100 + 100 * k);
    EXPECT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
  if (!fault_plan_xml.empty()) {
    auto plan = util::FaultPlan::from_xml(fault_plan_xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    EXPECT_TRUE(service.plane()->apply_fault_plan(plan.value()).is_ok());
  }
  sys.run_for(Duration::seconds(10.0));

  RunOutput out;
  for (const Delivery& d : service.session(id)->drain()) {
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
    if (d.kind != Delivery::Kind::kRow) continue;
    out.events.push_back(event_key(d));
  }
  out.stats_json = service.stats_json();
  out.metrics_json = sys.metrics().snapshot_json();
  out.trace_json = sys.trace_json();
  return out;
}

TEST(RuntimeDeterminismTest, SameSeedIsByteIdenticalAcrossThreadCounts) {
  RunOutput one = run_workload(1, 42);
  RunOutput two = run_workload(2, 42);
  RunOutput eight = run_workload(8, 42);

  ASSERT_FALSE(one.events.empty());
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.events, eight.events);
  EXPECT_EQ(one.stats_json, two.stats_json);
  EXPECT_EQ(one.stats_json, eight.stats_json);
  EXPECT_EQ(one.metrics_json, two.metrics_json);
  EXPECT_EQ(one.metrics_json, eight.metrics_json);
  EXPECT_EQ(one.trace_json, two.trace_json);
  EXPECT_EQ(one.trace_json, eight.trace_json);
}

TEST(RuntimeDeterminismTest, BackplaneStormIsByteIdenticalAcrossThreadCounts) {
  // The retry/ack/replay machinery (DESIGN.md §14) is itself part of the
  // deterministic surface: a backplane storm — loss on two worker links,
  // duplication into the czar, reordering and fixed delay — must replay
  // byte-identically at any thread count. Chaos perturbations draw from
  // the network's isolated chaos RNG and retry jitter from ReliableCall's
  // constant-derived stream, so no main-stream draw ever shifts.
  const std::string storm =
      "<fault_plan>"
      "<event at=\"3\" kind=\"loss\" device=\"shard-0\" prob=\"0.1\""
      " for=\"4\"/>"
      "<event at=\"3\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
      " for=\"4\"/>"
      "<event at=\"3\" kind=\"reorder\" device=\"shard-1\" prob=\"0.3\""
      " window=\"0.004\" for=\"4\"/>"
      "<event at=\"3\" kind=\"delay\" device=\"czar\" add=\"0.002\""
      " for=\"4\"/>"
      "</fault_plan>";
  RunOutput one = run_workload(1, 42, storm);
  RunOutput two = run_workload(2, 42, storm);
  RunOutput eight = run_workload(8, 42, storm);

  ASSERT_FALSE(one.events.empty());
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.events, eight.events);
  EXPECT_EQ(one.stats_json, two.stats_json);
  EXPECT_EQ(one.stats_json, eight.stats_json);
  EXPECT_EQ(one.metrics_json, two.metrics_json);
  EXPECT_EQ(one.metrics_json, eight.metrics_json);
  EXPECT_EQ(one.trace_json, two.trace_json);
  EXPECT_EQ(one.trace_json, eight.trace_json);
}

TEST(RuntimeDeterminismTest, RepeatedThreadedRunsAreByteIdentical) {
  // Two 8-thread runs of the same seed: any racy interleaving that leaked
  // into delivery order, metrics or traces would show up here.
  RunOutput a = run_workload(8, 7);
  RunOutput b = run_workload(8, 7);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  ASSERT_FALSE(a.events.empty());
}

TEST(RuntimeDeterminismTest, RuntimeMetricsAreEnrolledPerLoop) {
  core::Config config;
  config.runtime_threads = 2;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  QueryService service(&sys, cfg);
  ASSERT_TRUE(service.plane()->add_mote("m0", {0, 0, 1}).is_ok());
  SessionId id = service.connect("acme");
  ASSERT_TRUE(
      service.submit(id, "CREATE AQ t AS SELECT s.temp FROM sensor s").is_ok());
  sys.run_for(Duration::seconds(3.0));

  // Loops 0 (control), 1 and 2 (workers) each expose barrier/queue stats.
  const std::string full = sys.metrics().snapshot_json(false, true);
  const std::string deterministic = sys.metrics().snapshot_json();
  for (int i = 0; i < 3; ++i) {
    std::string prefix = "runtime." + std::to_string(i) + ".";
    EXPECT_TRUE(sys.metrics().contains(prefix + "barrier_waits")) << prefix;
    EXPECT_TRUE(sys.metrics().contains(prefix + "queue_depth")) << prefix;
    // The volatile stall histogram is excluded from the deterministic
    // snapshot but present in the full export.
    EXPECT_NE(full.find("barrier_stall_ms"), std::string::npos);
    EXPECT_EQ(deterministic.find("barrier_stall_ms"), std::string::npos);
  }
  EXPECT_GT(sys.metrics().gauge_value("runtime.windows"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("runtime.loops"), 3);
  // Cross-loop traffic flowed over the fabric during the run.
  EXPECT_GT(sys.metrics().counter_value("network.cross_sent"), 0u);
}

// A host that re-creates its sharded service reuses the dead slices'
// loops: the group does not grow, a reused loop starts fresh at the
// control loop's time, windows stop stepping a retired loop, and
// runtime.<i>.* leaves the registry with the slice that enrolled it.
TEST(RuntimeDeterminismTest, RecreatedServicesReuseRetiredLoops) {
  core::Config config;
  config.runtime_threads = 2;
  core::Aorta sys(config);
  for (int cycle = 0; cycle < 3; ++cycle) {
    ServiceConfig cfg;
    cfg.num_shards = 2;
    auto service = std::make_unique<QueryService>(&sys, cfg);
    ASSERT_EQ(sys.runtime().size(), 3) << cycle;
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(sys.runtime().clock(i)->now(), sys.loop().now()) << cycle;
      EXPECT_EQ(sys.runtime().stats(i).barrier_waits, 0u) << cycle;
    }
    ASSERT_TRUE(service->plane()->add_mote("m0", {0, 0, 1}).is_ok());
    SessionId id = service->connect("acme");
    ASSERT_TRUE(service
                    ->submit(id,
                             "CREATE AQ t AS SELECT s.id FROM sensor s "
                             "WHERE s.hops > 0")
                    .is_ok());
    sys.run_for(Duration::seconds(3.0));
    std::size_t rows = 0;
    for (const Delivery& d : service->session(id)->drain()) {
      rows += d.kind == Delivery::Kind::kRow ? 1 : 0;
    }
    EXPECT_GT(rows, 0u) << cycle;
    EXPECT_TRUE(sys.metrics().contains("runtime.2.barrier_waits")) << cycle;

    service.reset();
    for (int i = 1; i < 3; ++i) {
      const std::string p = "runtime." + std::to_string(i) + ".";
      for (const char* key : {"barrier_waits", "posts_out", "posts_in",
                              "posts_clamped", "max_outbox_depth",
                              "queue_depth", "barrier_stall_ms"}) {
        EXPECT_FALSE(sys.metrics().contains(p + key)) << p << key;
      }
    }
    const std::uint64_t waits = sys.runtime().stats(1).barrier_waits;
    sys.run_for(Duration::seconds(1.0));
    EXPECT_EQ(sys.runtime().stats(1).barrier_waits, waits) << cycle;
  }
  EXPECT_EQ(sys.runtime().size(), 3);
  EXPECT_EQ(sys.metrics().gauge_value("runtime.loops"), 3);
  EXPECT_TRUE(sys.metrics().contains("runtime.0.barrier_waits"));
  const std::string json = sys.metrics().snapshot_json(false, true);
  EXPECT_EQ(json.find("\"3\": {"), std::string::npos);
}

}  // namespace
}  // namespace aorta
