// Golden test: the registry-walk stats_json() must publish the same
// values the historic hand-concatenated renderer did. The expected
// numbers below were captured by running this exact scenario against the
// pre-registry implementation — any drift means the migration changed
// semantics, not just rendering.
//
// Also pins observability determinism: two same-seed runs produce
// byte-identical metrics documents and byte-identical trace streams.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "server/service.h"
#include "util/time.h"

namespace aorta {
namespace {

using util::Duration;

struct GoldenRun {
  explicit GoldenRun(bool tracing = false) {
    core::Config cfg;
    cfg.seed = 11;
    cfg.scan_freshness = util::Duration::millis(500);
    cfg.tracing = tracing;
    sys = std::make_unique<core::Aorta>(cfg);
    (void)sys->add_mote("m1", {1, 1, 1});
    (void)sys->add_mote("m2", {2, 2, 1});
    (void)sys->add_camera("cam1", "192.168.0.90", {{0, 0, 3}, 0.0});
    service = std::make_unique<server::QueryService>(sys.get(),
                                                     server::ServiceConfig{});
    auto alice = service->connect("alice");
    auto bob = service->connect("bob");
    (void)service->submit(alice,
                          "CREATE AQ watch AS SELECT s.id, s.accel_x FROM "
                          "sensor s WHERE s.accel_x > 500");
    (void)service->submit(bob, "SELECT s.id, s.temp FROM sensor s");
    sys->run_for(util::Duration::seconds(12));
  }
  std::unique_ptr<core::Aorta> sys;
  std::unique_ptr<server::QueryService> service;
};

TEST(StatsGoldenTest, RegistryValuesMatchPreRegistryCapture) {
  GoldenRun run;
  const obs::MetricsRegistry& m = run.sys->metrics();

  // sessions / admission (server layer).
  EXPECT_EQ(m.gauge_value("sessions.total"), 2);
  EXPECT_EQ(m.gauge_value("sessions.active"), 2);
  EXPECT_EQ(m.counter_value("admission.submitted"), 2u);
  EXPECT_EQ(m.counter_value("admission.admitted"), 2u);
  EXPECT_EQ(m.counter_value("admission.rejected"), 0u);
  EXPECT_EQ(m.counter_value("admission.shed"), 0u);
  EXPECT_EQ(m.counter_value("admission.dispatched"), 2u);
  EXPECT_EQ(m.gauge_value("admission.queued"), 0);

  // scan broker.
  EXPECT_EQ(m.gauge_value("scan_broker.subscribers"), 1);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.batches"), 13u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.rpcs_issued"), 24u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.rpcs_coalesced"), 2u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.cache_hits"), 0u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.read_failures"), 4u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.tuples_delivered"), 20u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.deliveries"), 12u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.devices_skipped"), 4u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.quarantined_skips"), 0u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.degraded_reads"), 0u);
  EXPECT_EQ(m.counter_value("scan_broker.types.sensor.degraded_tuples"), 0u);
  EXPECT_EQ(m.gauge_value("scan_broker.types.sensor.subscribers"), 1);

  // network / rpc.
  EXPECT_EQ(m.counter_value("network.sent"), 44u);
  EXPECT_EQ(m.counter_value("network.delivered"), 40u);
  EXPECT_EQ(m.counter_value("network.dropped_loss"), 3u);
  EXPECT_EQ(m.counter_value("network.dropped_no_route"), 0u);
  EXPECT_EQ(m.counter_value("network.dropped_partition"), 0u);
  EXPECT_EQ(m.counter_value("network.dropped_offline"), 0u);
  EXPECT_EQ(m.counter_value("network.bounced"), 0u);
  EXPECT_EQ(m.counter_value("network.rpc.completed"), 20u);
  EXPECT_EQ(m.counter_value("network.rpc.timeouts"), 2u);
  EXPECT_EQ(m.counter_value("network.rpc.late_replies"), 0u);
  EXPECT_EQ(m.counter_value("network.rpc.unreachable"), 0u);

  // health supervision.
  EXPECT_EQ(m.gauge_value("health.quarantined"), 0);
  EXPECT_EQ(m.counter_value("health.reports_ok"), 20u);
  EXPECT_EQ(m.counter_value("health.reports_failed"), 2u);
  EXPECT_EQ(m.counter_value("health.quarantines"), 0u);
  EXPECT_EQ(m.counter_value("health.recoveries"), 0u);
  EXPECT_EQ(m.counter_value("health.probes_sent"), 0u);
  EXPECT_EQ(m.counter_value("health.probes_failed"), 0u);

  // compiled evaluation. compiled_evals dropped from the pre-index 22
  // when the predicate index started pruning non-matching tuples before
  // the program ever runs (see eval.index.pruned below); the remaining
  // 4 runs belong to the one-shot SELECT.
  EXPECT_EQ(m.counter_value("eval.programs_compiled"), 5u);
  EXPECT_EQ(m.counter_value("eval.compiled_evals"), 4u);

  // predicate index: one delivery group (one AQ), every delivered tuple
  // probed. Under seed 11 no sensor sample ever exceeds 500, so the lower
  // bound prunes every tuple — the 18 eliminated probes are exactly the
  // 18 predicate runs compiled_evals lost versus its pre-index value.
  EXPECT_EQ(m.gauge_value("eval.index.entries"), 1);
  EXPECT_EQ(m.gauge_value("eval.index.groups"), 1);
  EXPECT_EQ(m.counter_value("eval.index.probes"), 18u);
  EXPECT_EQ(m.counter_value("eval.index.candidates"), 0u);
  EXPECT_EQ(m.counter_value("eval.index.exact_skips"), 0u);
  EXPECT_EQ(m.counter_value("eval.index.residual_evals"), 0u);
  EXPECT_EQ(m.counter_value("eval.index.pruned"), 18u);
  EXPECT_EQ(m.gauge_value("eval.index.types.sensor.entries"), 1);

  // tenants.
  for (const char* t : {"alice", "bob"}) {
    const std::string p = std::string("tenants.") + t + ".";
    EXPECT_EQ(m.counter_value(p + "submitted"), 1u) << t;
    EXPECT_EQ(m.counter_value(p + "admitted"), 1u) << t;
    EXPECT_EQ(m.counter_value(p + "rejected"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "shed"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "dispatched"), 1u) << t;
    EXPECT_EQ(m.counter_value(p + "completed"), 1u) << t;
    EXPECT_EQ(m.counter_value(p + "errors"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "rows"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "rows_degraded"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "outcomes"), 0u) << t;
    EXPECT_EQ(m.counter_value(p + "partial_results"), 0u) << t;
    EXPECT_EQ(m.gauge_value(p + "mailbox_dropped"), 0) << t;
  }

  // Latency distributions and booleans render through stats_json with the
  // historic formatting (%.3f percentiles, exact sample counts).
  const std::string json = run.service->stats_json();
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  // scan_broker.batch_latency_ms: {count: 12, p50: 117.633, ...}.
  EXPECT_NE(json.find("\"count\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 117.633"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 2000.000"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 2000.000"), std::string::npos);
  // tenants.*.admission_latency_ms: {count: 1, p50: 100.000, ...}.
  EXPECT_NE(json.find("\"p50\": 100.000"), std::string::npos);

  // Full snapshot (with histogram buckets) as a file artifact; CI
  // schema-validates it with tools/validate_metrics.py.
  std::ofstream out("metrics_snapshot.json");
  out << m.snapshot_json(/*include_buckets=*/true) << '\n';
  EXPECT_TRUE(out.good());
}

TEST(StatsGoldenTest, HealthSectionReportsDisabledWhenSupervisionOff) {
  core::Config cfg;
  cfg.seed = 11;
  cfg.health_supervision = false;
  core::Aorta sys(cfg);
  EXPECT_EQ(sys.metrics().gauge_value("health.enabled"), 0);
  EXPECT_FALSE(sys.metrics().contains("health.reports_ok"));
  EXPECT_NE(sys.metrics().snapshot_json().find("\"enabled\": false"),
            std::string::npos);
}

TEST(StatsGoldenTest, ShardedPlanePublishesReliableBackplaneSection) {
  core::Config cfg;
  cfg.seed = 11;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  server::QueryService service(&sys, sc);
  const obs::MetricsRegistry& m = sys.metrics();
  // The czar's reliable dispatcher and the plane's replay-buffer view
  // share the "net.reliable." section (DESIGN.md §14).
  for (const char* k :
       {"net.reliable.calls", "net.reliable.attempts", "net.reliable.retries",
        "net.reliable.giveups", "net.reliable.budget_exhausted",
        "net.reliable.breaker.opens", "net.reliable.breaker.rejects"}) {
    EXPECT_TRUE(m.contains(k)) << k;
    EXPECT_EQ(m.counter_value(k), 0u) << k;
  }
  EXPECT_EQ(m.gauge_value("net.reliable.replay_depth"), 0);
  EXPECT_EQ(m.gauge_value("net.reliable.replay_hwm"), 0);

  // Sharded snapshot artifact; CI schema-validates the net.reliable
  // section with tools/validate_metrics.py.
  std::ofstream out("metrics_snapshot_sharded.json");
  out << m.snapshot_json(/*include_buckets=*/true) << '\n';
  EXPECT_TRUE(out.good());
}

// Dotted leaf names of a MetricsRegistry snapshot (histograms expand to
// their fields). The renderer emits plain keys and no strings as values,
// so a scan for `"key":` followed by `{` or a value suffices.
std::set<std::string> snapshot_keys(const std::string& json) {
  std::set<std::string> keys;
  std::vector<std::string> path;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '}') {
      if (!path.empty()) path.pop_back();
    } else if (json[i] == '"') {
      const std::size_t end = json.find('"', i + 1);
      std::string key = json.substr(i + 1, end - i - 1);
      i = json.find_first_not_of(" :", end + 1);
      std::string prefix;
      for (const std::string& p : path) prefix += p + ".";
      if (json[i] == '{') {
        path.push_back(key);
      } else {
        keys.insert(prefix + key);
      }
    }
  }
  return keys;
}

// Every engine slice enrolls one schema: right after a 2-shard plane is
// built, each engine section under "shard.<i>." holds exactly the keys the
// host slice publishes at the top level.
TEST(StatsGoldenTest, EverySliceEnrollsTheEngineSchema) {
  core::Config cfg;
  cfg.seed = 11;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  server::QueryService service(&sys, sc);
  const std::set<std::string> keys =
      snapshot_keys(sys.metrics().snapshot_json());
  for (const std::string section :
       {"eval", "health", "network", "scan_broker", "sync", "broker"}) {
    std::set<std::string> host;
    for (const std::string& k : keys) {
      if (k.rfind(section + ".", 0) == 0) host.insert(k);
    }
    EXPECT_FALSE(host.empty()) << section;
    for (int i = 0; i < sc.num_shards; ++i) {
      const std::string shard = "shard." + std::to_string(i) + ".";
      std::set<std::string> slice;
      for (const std::string& k : keys) {
        if (k.rfind(shard + section + ".", 0) == 0) {
          slice.insert(k.substr(shard.size()));
        }
      }
      EXPECT_EQ(slice, host) << shard << section;
    }
  }
}

TEST(StatsGoldenTest, SameSeedRunsProduceByteIdenticalMetricsAndTraces) {
  GoldenRun a(/*tracing=*/true);
  GoldenRun b(/*tracing=*/true);
  EXPECT_EQ(a.service->stats_json(), b.service->stats_json());
  EXPECT_GT(a.sys->tracer().recorded(), 0u);
  EXPECT_EQ(a.sys->tracer().chrome_json(), b.sys->tracer().chrome_json());
}

}  // namespace
}  // namespace aorta
