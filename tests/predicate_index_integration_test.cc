// Engine-level predicate-index tests: the index is an *optimization*, so
// a full simulated run with Config::predicate_index on must produce the
// same bytes as a run with it off (every delivery-group member on the
// residual list) — row stream, action outcomes and metrics snapshot —
// including glitchy devices, edge-triggered phase assignment, mixed
// periods, AQs dropped mid-run, residual-only predicates, contradictions
// and an action AQ. Also pins the register/drop churn invariants (a
// 1k-cycle churn storm leaves no index debris and does not perturb
// surviving AQs), and that row hooks may drop AQs mid-delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/aorta.h"
#include "devices/signal.h"
#include "util/strings.h"
#include "util/time.h"

namespace aorta {
namespace {

using util::Duration;

// events / requests / epochs per AQ — everything QueryStats exposes.
using AqStats = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

AqStats stats_of(const core::Aorta& sys, const std::string& name) {
  const query::QueryStats* qs = sys.query_stats(name);
  if (qs == nullptr) return {0, 0, 0};
  return {qs->events, qs->requests_issued, qs->epochs};
}

// One delivered row, rendered with everything the hook sees.
std::string row_key(const std::string& query, const query::TimestampedRow& r) {
  std::string key = query + "@" + std::to_string(r.at.to_micros());
  for (const auto& [column, value] : r.row) {
    key += "|" + column + "=" + device::value_to_string(value);
  }
  return r.degraded ? key + "|degraded" : key;
}

// CREATE AQ with an on_row hook (exec_async completes DDL synchronously).
void create_aq(core::Aorta& sys, const std::string& sql,
               std::function<void(const std::string&,
                                  const query::TimestampedRow&)> on_row) {
  core::ExecOptions options;
  options.on_row = std::move(on_row);
  bool done = false;
  sys.exec_async(sql, std::move(options),
                 [&](util::Result<core::ExecResult> r) {
                   EXPECT_TRUE(r.is_ok()) << sql << ": "
                                          << r.status().to_string();
                   done = true;
                 });
  EXPECT_TRUE(done) << sql;
}

struct ScenarioRun {
  std::map<std::string, AqStats> stats;
  std::vector<std::string> rows;  // every on_row delivery, in order
  std::map<std::string, std::string> actions;  // per-AQ action outcomes
  std::string metrics;  // snapshot minus the counters the index changes
};

// One deterministic scenario, parameterized only by the index switch.
// Four motes with staggered spike signals (default glitch probability
// kept, so read failures and degraded tuples occur), eight AQs covering
// every index entry kind plus an action, a drop mid-run, and a
// non-default period.
ScenarioRun run_scenario(bool indexed) {
  core::Config cfg;
  cfg.seed = 1309;
  cfg.predicate_index = indexed;
  core::Aorta sys(cfg);
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    EXPECT_TRUE(sys.add_mote(id, {static_cast<double>(3 * i), 0, 1}).is_ok());
    (void)sys.mote(id)->set_signal(
        "accel_x", devices::periodic_spike_signal(
                       50.0, 300.0 * (i + 1), Duration::seconds(8),
                       Duration::seconds(2), Duration::seconds(i)));
    (void)sys.mote(id)->set_signal(
        "accel_y", devices::sine_signal(400.0, 350.0, 10.0,
                                        0.7 * static_cast<double>(i)));
  }

  const char* aqs[] = {
      // exact-cover lower bound (the paper's flagship predicate shape)
      "CREATE AQ lower AS SELECT s.id, s.accel_x FROM sensor s "
      "WHERE s.accel_x > 500",
      // two-sided range, half-open
      "CREATE AQ band AS SELECT s.id FROM sensor s "
      "WHERE s.accel_x >= 400 AND s.accel_x < 800",
      // contradictory conjuncts: kNever, must fire nothing
      "CREATE AQ never AS SELECT s.id FROM sensor s "
      "WHERE s.accel_x > 5000 AND s.accel_x < 10",
      // string equality + numeric residual on another slot
      "CREATE AQ strid AS SELECT s.accel_x FROM sensor s "
      "WHERE s.id = 'm1' AND s.accel_x > 200",
      // opaque arithmetic: stays on the residual list
      "CREATE AQ resid AS SELECT s.id FROM sensor s "
      "WHERE (s.accel_x + s.accel_y) > 900",
      // non-default period: separate delivery group
      "CREATE AQ slow EVERY 2 AS SELECT s.id FROM sensor s "
      "WHERE s.accel_x >= 500",
      // dropped mid-run below
      "CREATE AQ victim AS SELECT s.id FROM sensor s "
      "WHERE s.accel_x > 250",
      // action AQ: requests, probes, locks and outcomes
      "CREATE AQ alarm AS SELECT beep(s.id) FROM sensor s "
      "WHERE s.accel_x > 700",
  };
  ScenarioRun out;
  for (const char* sql : aqs) {
    create_aq(sys, sql,
              [rows = &out.rows](const std::string& query,
                                 const query::TimestampedRow& row) {
                rows->push_back(row_key(query, row));
              });
  }

  sys.run_for(Duration::seconds(11));
  out.stats["victim"] = stats_of(sys, "victim");  // capture before the drop
  EXPECT_TRUE(sys.exec("DROP AQ victim").is_ok());
  sys.run_for(Duration::seconds(11));

  for (const char* name : {"lower", "band", "never", "strid", "resid",
                           "slow", "alarm"}) {
    out.stats[name] = stats_of(sys, name);
    query::QueryActionStats as = sys.action_stats(name);
    out.actions[name] = util::str_format(
        "%llu/%llu/%llu/%llu/%llu",
        static_cast<unsigned long long>(as.requests),
        static_cast<unsigned long long>(as.usable),
        static_cast<unsigned long long>(as.degraded),
        static_cast<unsigned long long>(as.failed),
        static_cast<unsigned long long>(as.no_candidate));
  }
  // Evaluation counts are what the index saves; everything else —
  // including the index entry/group gauges and the broker's subscriber
  // counts — must not depend on it.
  for (const char* masked :
       {"eval.compiled_evals", "eval.index.probes", "eval.index.candidates",
        "eval.index.residual_evals", "eval.index.exact_skips",
        "eval.index.pruned"}) {
    EXPECT_TRUE(sys.metrics().contains(masked)) << masked;
    sys.metrics().unenroll(masked);
  }
  out.metrics = sys.metrics().snapshot_json();

  // The scenario is only meaningful if things actually fire.
  EXPECT_GT(std::get<0>(out.stats["lower"]), 0u);
  EXPECT_GT(std::get<0>(out.stats["band"]), 0u);
  EXPECT_GT(std::get<0>(out.stats["resid"]), 0u);
  EXPECT_GT(std::get<0>(out.stats["victim"]), 0u);
  EXPECT_EQ(std::get<0>(out.stats["never"]), 0u);
  EXPECT_GT(std::get<1>(out.stats["alarm"]), 0u);
  EXPECT_FALSE(out.rows.empty());
  return out;
}

TEST(PredicateIndexIntegrationTest, IndexedRunMatchesExhaustiveRun) {
  ScenarioRun off = run_scenario(/*indexed=*/false);
  ScenarioRun on = run_scenario(/*indexed=*/true);
  ASSERT_EQ(on.stats.size(), off.stats.size());
  for (const auto& [name, expected] : off.stats) {
    EXPECT_EQ(on.stats.at(name), expected) << name;
  }
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(on.actions, off.actions);
  EXPECT_EQ(on.metrics, off.metrics);
}

// ------------------------------------------------------------------ churn

// 1000 register/drop cycles around one long-lived AQ: index and member
// bookkeeping must return exactly to the keeper-only baseline, and the
// keeper's event stream must be identical to a churn-free control run over
// the same simulated schedule.
struct ChurnRun {
  explicit ChurnRun(bool churn) {
    core::Config cfg;
    cfg.seed = 5;
    sys = std::make_unique<core::Aorta>(cfg);
    for (int i = 0; i < 3; ++i) {
      std::string id = "m" + std::to_string(i);
      (void)sys->add_mote(id, {static_cast<double>(2 * i), 0, 1});
      (void)sys->mote(id)->set_signal(
          "accel_x", devices::periodic_spike_signal(
                         0.0, 900.0, Duration::seconds(6),
                         Duration::seconds(2), Duration::seconds(i)));
    }
    EXPECT_TRUE(sys->exec("CREATE AQ keeper AS SELECT s.id, s.accel_x "
                          "FROM sensor s WHERE s.accel_x > 500")
                    .is_ok());
    int cycle = 0;
    for (int step = 0; step < 20; ++step) {
      if (churn) {
        // 50 register+drop cycles per step, 1000 total. Predicates are
        // varied so the cycles hit every entry kind: same-shape entries
        // that join the keeper's group, other-slot entries, residuals,
        // contradictions, and string equality.
        for (int k = 0; k < 50; ++k, ++cycle) {
          std::string name = "churn" + std::to_string(cycle);
          std::string where;
          switch (cycle % 5) {
            case 0: where = "s.accel_x > " + std::to_string(cycle); break;
            case 1: where = "s.accel_x >= 100 AND s.accel_x < " +
                            std::to_string(200 + cycle); break;
            case 2: where = "s.id = 'm" + std::to_string(cycle % 3) + "'";
                    break;
            case 3: where = "(s.accel_x + s.accel_y) > 100"; break;
            default: where = "s.accel_x > 10 AND s.accel_x < 5"; break;
          }
          EXPECT_TRUE(sys->exec("CREATE AQ " + name +
                                " AS SELECT s.id, s.accel_x FROM sensor s "
                                "WHERE " + where)
                          .is_ok())
              << where;
          EXPECT_TRUE(sys->exec("DROP AQ " + name).is_ok());
        }
      }
      sys->run_for(Duration::seconds(1));
    }
  }
  std::unique_ptr<core::Aorta> sys;
};

TEST(PredicateIndexIntegrationTest, ThousandCycleChurnLeavesNoDebris) {
  ChurnRun churn(/*churn=*/true);
  // Only the keeper remains: one group, one index entry, nothing on the
  // residual list, no leaked per-type gauge weight.
  const obs::MetricsRegistry& m = churn.sys->metrics();
  EXPECT_EQ(m.gauge_value("eval.index.entries"), 1);
  EXPECT_EQ(m.gauge_value("eval.index.groups"), 1);
  EXPECT_EQ(m.gauge_value("eval.index.types.sensor.entries"), 1);

  ChurnRun control(/*churn=*/false);
  // The member table that resolves pairs to AQs is back to its size
  // without the churn: bounded by live AQs, not by registrations made.
  EXPECT_EQ(churn.sys->executor().member_table_size(), 1u);
  EXPECT_EQ(control.sys->executor().member_table_size(), 1u);
  EXPECT_EQ(stats_of(*churn.sys, "keeper"), stats_of(*control.sys, "keeper"));
  EXPECT_GT(std::get<0>(stats_of(*churn.sys, "keeper")), 0u);
}

// ------------------------------------------------------ drops from hooks

// Row hooks may drop AQs while the executor is delivering: their own AQ,
// another member of the same delivery group, an AQ of another group due
// in the same broker batch, and the same three shapes on the shared
// aggregate cache; one hook also drops its own AQ and registers a new one
// in the same group, which takes over the dropped member's slot. Every
// link is perfect and every device glitch-free, so the drops change no
// read outcome and the survivors must see exactly the rows of a run
// without the drops.
struct HookDropRun {
  explicit HookDropRun(bool drops) {
    core::Config cfg;
    cfg.seed = 11;
    sys = std::make_unique<core::Aorta>(cfg);
    (void)sys->network().set_link(comm::EngineNode::kNodeId,
                                  net::LinkModel::perfect());
    for (int i = 0; i < 3; ++i) {
      std::string id = "m" + std::to_string(i);
      EXPECT_TRUE(
          sys->add_mote(id, {static_cast<double>(2 * i), 0, 1}).is_ok());
      sys->mote(id)->reliability().glitch_prob = 0.0;
      (void)sys->network().set_link(id, net::LinkModel::perfect());
      (void)sys->mote(id)->set_signal(
          "accel_x", devices::periodic_spike_signal(
                         0.0, 900.0, Duration::seconds(5),
                         Duration::seconds(2), Duration::seconds(i)));
    }

    auto logger = [this](const std::string& query,
                         const query::TimestampedRow& row) {
      log.push_back(row_key(query, row));
    };
    // Drops `victims` on its first row.
    auto killer = [this, drops](std::vector<std::string> victims) {
      return [this, drops, victims, fired = false](
                 const std::string& query,
                 const query::TimestampedRow& row) mutable {
        log.push_back(row_key(query, row));
        if (!drops || fired) return;
        fired = true;
        for (const std::string& victim : victims) {
          log.push_back("DROP " + victim);
          EXPECT_TRUE(sys->executor().drop_aq(victim).is_ok()) << victim;
        }
      };
    };
    // Drops its own AQ on its first row. The drop destroys this hook and
    // `query`, so it copies what it needs and touches nothing afterwards.
    auto suicide = [this, drops](const std::string& query,
                                 const query::TimestampedRow& row) {
      HookDropRun* run = this;
      run->log.push_back(row_key(query, row));
      if (!drops) return;
      std::string name = query;
      run->log.push_back("DROP " + name);
      bool dropped = run->sys->executor().drop_aq(name).is_ok();
      EXPECT_TRUE(dropped) << name;
    };
    // Like `suicide`, then registers `newcomer`, an action AQ of the same
    // group, mid-pass.
    auto swapper = [this, drops](const std::string& query,
                                 const query::TimestampedRow& row) {
      HookDropRun* run = this;
      run->log.push_back(row_key(query, row));
      if (!drops) return;
      std::string name = query;
      run->log.push_back("DROP " + name);
      EXPECT_TRUE(run->sys->executor().drop_aq(name).is_ok()) << name;
      run->joined_at = run->sys->loop().now();
      create_aq(*run->sys,
                "CREATE AQ newcomer AS SELECT s.id, s.accel_x, beep(s.id) "
                "FROM sensor s WHERE s.accel_x > 200",
                [run](const std::string& q, const query::TimestampedRow& r) {
                  run->log.push_back(row_key(q, r));
                  run->newcomer_at.push_back(r.at);
                });
    };

    const std::string g1 = "AS SELECT s.id, s.accel_x FROM sensor s WHERE ";
    const std::string agg = "AS SELECT max(s.accel_x) FROM sensor s";
    create_aq(*sys, "CREATE AQ keep " + g1 + "s.accel_x > 500", logger);
    create_aq(*sys, "CREATE AQ killer " + g1 + "s.accel_x > 300",
              killer({"same", "other"}));
    create_aq(*sys,
              "CREATE AQ self AS SELECT s.id, s.accel_x, beep(s.id) "
              "FROM sensor s WHERE s.accel_x > 400",
              suicide);
    create_aq(*sys, "CREATE AQ same " + g1 + "s.accel_x > 200", logger);
    create_aq(*sys,
              "CREATE AQ other AS SELECT s.accel_x FROM sensor s "
              "WHERE s.accel_x > 100",
              logger);
    create_aq(*sys, "CREATE AQ swapper " + g1 + "s.accel_x > 350", swapper);
    create_aq(*sys, "CREATE AQ aggkill " + agg, killer({"aggvictim"}));
    create_aq(*sys, "CREATE AQ aggvictim " + agg, logger);
    create_aq(*sys, "CREATE AQ aggself " + agg, suicide);
    sys->run_for(Duration::seconds(16));
  }

  // Log entries of `query` ("DROP" markers included), in order.
  std::vector<std::string> of(const std::string& query) const {
    std::vector<std::string> out;
    for (const std::string& entry : log) {
      if (entry.rfind(query + "@", 0) == 0 || entry == "DROP " + query) {
        out.push_back(entry);
      }
    }
    return out;
  }

  std::unique_ptr<core::Aorta> sys;
  std::vector<std::string> log;
  util::TimePoint joined_at;  // when the swapper registered `newcomer`
  std::vector<util::TimePoint> newcomer_at;  // newcomer's row stamps
};

TEST(DeliveryHookTest, HooksMayDropAqsMidDelivery) {
  HookDropRun dropped(/*drops=*/true);
  HookDropRun control(/*drops=*/false);

  // Dropped AQs deliver nothing after their drop.
  for (const char* victim : {"self", "same", "other", "swapper",
                             "aggvictim", "aggself"}) {
    std::vector<std::string> entries = dropped.of(victim);
    auto drop = std::find(entries.begin(), entries.end(),
                          std::string("DROP ") + victim);
    ASSERT_NE(drop, entries.end()) << victim;
    EXPECT_EQ(drop + 1, entries.end()) << victim;
    EXPECT_EQ(dropped.sys->query_stats(victim), nullptr) << victim;
  }
  // The self-dropping AQs delivered the row that triggered their drop.
  EXPECT_EQ(dropped.of("self").size(), 2u);
  EXPECT_EQ(dropped.of("swapper").size(), 2u);
  EXPECT_EQ(dropped.of("aggself").size(), 2u);

  // The AQ registered mid-pass receives nothing from batches issued
  // before it joined: its group's members fired at that instant (the
  // swapper's own first row), but its first row comes a later pass, and
  // it requested one action per row of its own, none for the event whose
  // hook registered it.
  ASSERT_FALSE(dropped.newcomer_at.empty());
  for (const util::TimePoint& at : dropped.newcomer_at) {
    EXPECT_GT(at, dropped.joined_at);
  }
  EXPECT_EQ(dropped.sys->action_stats("newcomer").requests,
            dropped.newcomer_at.size());
  EXPECT_TRUE(control.newcomer_at.empty());

  // Survivors: byte-identical to the run without drops, and not vacuous.
  for (const char* survivor : {"keep", "killer", "aggkill"}) {
    std::vector<std::string> rows = control.of(survivor);
    EXPECT_GT(rows.size(), 1u) << survivor;
    std::vector<std::string> got = dropped.of(survivor);
    EXPECT_EQ(got, rows) << survivor;
  }
  EXPECT_GT(control.sys->action_stats("self").requests, 1u);
}

// ------------------------------------------------------ edge semantics

// Hand-counted fires for the per-device edge state. m0 stays satisfied
// through four epochs in which it is unreachable (partitioned; health
// supervision off, so no cached value stands in) and must not fire again
// when it returns: the broker delivers no row for it, which advances no
// sequence. m2 is first delivered after the others and fires on its first
// satisfying row. m1 never satisfies the predicate.
TEST(EdgeSemanticsTest, AbsentDevicesKeepTheirEdgeAndLateDevicesStartFresh) {
  core::Config cfg;
  cfg.seed = 23;
  cfg.health_supervision = false;
  core::Aorta sys(cfg);
  (void)sys.network().set_link(comm::EngineNode::kNodeId,
                               net::LinkModel::perfect());
  auto add = [&sys](const std::string& id, double x, double accel) {
    EXPECT_TRUE(sys.add_mote(id, {x, 0, 1}).is_ok());
    sys.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, net::LinkModel::perfect());
    (void)sys.mote(id)->set_signal("accel_x",
                                   devices::constant_signal(accel));
  };
  add("m0", 0, 900);
  add("m1", 2, 100);

  std::vector<std::pair<std::string, double>> fires;  // (device, at s)
  std::vector<double> m0_rows;  // every delivered m0 row, level-triggered
  create_aq(sys,
            "CREATE AQ edge AS SELECT s.id FROM sensor s "
            "WHERE s.accel_x > 500",
            [&fires](const std::string&, const query::TimestampedRow& r) {
              fires.emplace_back(std::get<std::string>(r.row[0].second),
                                 r.at.to_seconds());
            });
  create_aq(sys,
            "CREATE AQ seen AS SELECT s.accel_x FROM sensor s "
            "WHERE s.id = 'm0'",
            [&m0_rows](const std::string&, const query::TimestampedRow& r) {
              m0_rows.push_back(r.at.to_seconds());
            });

  sys.run_for(Duration::seconds(3.5));
  sys.network().partition("m0");
  sys.run_for(Duration::seconds(4.0));
  add("m2", 4, 900);
  sys.network().heal("m0");
  sys.run_for(Duration::seconds(4.5));

  // m0 was delivered before the partition and again after the heal, and
  // not in between.
  auto rows_in = [&m0_rows](double from, double to) {
    return std::count_if(m0_rows.begin(), m0_rows.end(),
                         [&](double at) { return at > from && at < to; });
  };
  EXPECT_GT(rows_in(0.0, 3.5), 0);
  EXPECT_EQ(rows_in(4.5, 7.5), 0);
  EXPECT_GT(rows_in(7.5, 12.0), 0);

  // One fire for m0 (its first row) and one for m2 (its first row, after
  // it joined); none for m1.
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0].first, "m0");
  EXPECT_LT(fires[0].second, 3.5);
  EXPECT_EQ(fires[1].first, "m2");
  EXPECT_GT(fires[1].second, 7.5);
  EXPECT_LT(fires[1].second, 9.0);
}

}  // namespace
}  // namespace aorta
