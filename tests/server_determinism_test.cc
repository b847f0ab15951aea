// Two Aorta instances with the same Config::seed and the same server
// workload must produce identical event traces and byte-identical server
// statistics: the service layer (ticks, admission, mailboxes) and the
// workload generator draw only from seeded Rngs and the simulated clock.
#include <gtest/gtest.h>

#include <string>

#include "core/aorta.h"
#include "server/service.h"
#include "server/workload_gen.h"

namespace aorta {
namespace {

using util::Duration;

struct RunOutput {
  std::string stats_json;
  std::string trace;
  std::uint64_t submitted = 0;
};

RunOutput run_once(std::uint64_t seed,
                   Duration freshness = Duration::zero(),
                   const std::string& fault_xml = "") {
  core::Config cfg;
  cfg.seed = seed;
  cfg.shared_scans = true;
  cfg.scan_freshness = freshness;
  cfg.tracing = true;
  core::Aorta sys(cfg);
  for (int i = 0; i < 3; ++i) {
    std::string id = "m" + std::to_string(i);
    (void)sys.add_mote(id, {static_cast<double>(i * 2), 0, 1}, 1 + i % 2);
    (void)sys.mote(id)->set_signal(
        "accel_x", devices::periodic_spike_signal(0.0, 900.0,
                                                  Duration::seconds(7.0),
                                                  Duration::seconds(1.0)));
    (void)sys.mote(id)->set_signal("temp", devices::constant_signal(20.0));
  }
  if (!fault_xml.empty()) {
    auto plan = util::FaultPlan::from_xml(fault_xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    EXPECT_TRUE(sys.apply_fault_plan(plan.value()).is_ok());
  }

  server::ServiceConfig sc;
  sc.admission.queue_capacity = 32;
  sc.admission.policy = util::OverflowPolicy::kShedOldest;
  server::QueryService service(&sys, sc);

  server::WorkloadConfig wc;
  wc.tenants = 3;
  wc.sessions_per_tenant = 4;
  wc.mode = server::WorkloadConfig::Mode::kOpenLoop;
  wc.arrival_rate_hz = 2.0;
  wc.aq_fraction = 0.2;
  wc.seed = 99;
  wc.rate_multipliers["t0"] = 3.0;
  server::WorkloadGen gen(&service, &sys, wc);
  gen.start();
  sys.run_for(Duration::seconds(20));
  gen.stop();

  RunOutput out;
  out.stats_json = service.stats_json();
  out.submitted = gen.stats().submitted;
  out.trace = sys.trace_json();
  return out;
}

TEST(ServerDeterminismTest, SameSeedSameWorkloadIsByteIdentical) {
  RunOutput a = run_once(42);
  RunOutput b = run_once(42);
  EXPECT_GT(a.submitted, 0u);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats_json, b.stats_json);
}

// The shared acquisition plane (ScanBroker) sits between the workload's
// AQs/SELECTs and the radio; with the freshness cache engaged it must stay
// fully deterministic, and its counters must show up in the rendered stats.
TEST(ServerDeterminismTest, SharedScanPlaneIsByteIdentical) {
  RunOutput a = run_once(7, Duration::millis(250));
  RunOutput b = run_once(7, Duration::millis(250));
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_NE(a.stats_json.find("\"scan_broker\""), std::string::npos);
  EXPECT_NE(a.stats_json.find("\"rpcs_issued\""), std::string::npos);
  // The workload mixes sensor SELECTs and AQs, so the broker must have
  // issued sensory RPCs over the sensor table.
  EXPECT_NE(a.stats_json.find("\"sensor\""), std::string::npos);
  // Compiled-evaluation counters render too, and the AQ predicates are
  // simple enough that they must all have compiled (hot path, not the
  // tree-walking fallback).
  EXPECT_NE(a.stats_json.find("\"eval\""), std::string::npos);
  EXPECT_NE(a.stats_json.find("\"compiled_evals\""), std::string::npos);
  EXPECT_EQ(a.stats_json.find("\"compiled_evals\": 0,"), std::string::npos);
}

// Scripted faults must not cost determinism: the same seed plus the same
// fault plan yields byte-identical stats, including the health-supervision
// and transport counters the faults exercise.
TEST(ServerDeterminismTest, SameSeedSameFaultPlanIsByteIdentical) {
  const std::string plan =
      "<fault_plan>"
      "<event at=\"4\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"12\" kind=\"revive\" device=\"m1\"/>"
      "<event at=\"6\" kind=\"loss\" device=\"m2\" prob=\"0.9\" for=\"5\"/>"
      "<event at=\"8\" kind=\"partition\" device=\"m0\"/>"
      "<event at=\"10\" kind=\"heal\" device=\"m0\"/>"
      "</fault_plan>";
  RunOutput a = run_once(42, Duration::zero(), plan);
  RunOutput b = run_once(42, Duration::zero(), plan);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats_json, b.stats_json);
  // The chaos counters render into the stats document.
  EXPECT_NE(a.stats_json.find("\"health\""), std::string::npos);
  EXPECT_NE(a.stats_json.find("\"network\""), std::string::npos);
  EXPECT_NE(a.stats_json.find("\"rows_degraded\""), std::string::npos);
  // And the faults actually changed the run.
  RunOutput calm = run_once(42);
  EXPECT_NE(a.stats_json, calm.stats_json);
}

TEST(ServerDeterminismTest, DifferentSeedsDiverge) {
  RunOutput a = run_once(42);
  RunOutput b = run_once(43);
  // Different engine seeds shift link jitter and scheduling draws; the
  // traces should not be byte-identical (stats may coincide by chance,
  // the full trace will not).
  EXPECT_NE(a.trace, b.trace);
}

}  // namespace
}  // namespace aorta
