// Tests for the observability extensions (continuous result streams, the
// event trace), the LPT extension scheduler, and parser robustness
// (fuzzing + expression round-trips).
#include <gtest/gtest.h>

#include "core/aorta.h"
#include "query/parser.h"
#include "sched/algorithms.h"
#include "sched/workload.h"

namespace aorta {
namespace {

using device::Value;
using util::Duration;
using util::TimePoint;

// ------------------------------------------------- continuous result rows

struct ResultsFixture : public ::testing::Test {
  ResultsFixture() : sys(core::Config{.seed = 37}) {
    (void)sys.add_mote("m1", {1, 1, 1});
    sys.mote("m1")->reliability().glitch_prob = 0.0;
    auto link = net::LinkModel::mote_radio();
    link.loss_prob = 0.0;
    (void)sys.network().set_link("m1", link);
    auto script = std::make_unique<devices::ScriptedSignal>(0.0);
    script->add_spike(TimePoint::from_micros(10'000'000), Duration::seconds(2),
                      700.0);
    script->add_spike(TimePoint::from_micros(40'000'000), Duration::seconds(2),
                      900.0);
    (void)sys.mote("m1")->set_signal("accel_x", std::move(script));
  }
  core::Aorta sys;
};

TEST_F(ResultsFixture, ProjectionsProduceTimestampedRowsAtEvents) {
  ASSERT_TRUE(sys.exec("CREATE AQ watch AS SELECT s.id, s.accel_x "
                       "FROM sensor s WHERE s.accel_x > 500")
                  .is_ok());
  sys.run_for(Duration::seconds(60));

  auto rows = sys.executor().recent_results("watch");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NEAR(rows[0].at.to_seconds(), 10.0, 1.5);
  EXPECT_NEAR(rows[1].at.to_seconds(), 40.0, 1.5);
  ASSERT_EQ(rows[0].row.size(), 2u);
  EXPECT_TRUE(device::value_equal(rows[0].row[0].second,
                                  Value{std::string("m1")}));
  EXPECT_TRUE(device::value_equal(rows[0].row[1].second, Value{700.0}));
  EXPECT_TRUE(device::value_equal(rows[1].row[1].second, Value{900.0}));
}

TEST_F(ResultsFixture, ActionOnlyQueriesProduceNoRows) {
  ASSERT_TRUE(sys.exec("CREATE AQ alarm AS SELECT beep(s.id) "
                       "FROM sensor s WHERE s.accel_x > 500")
                  .is_ok());
  sys.run_for(Duration::seconds(60));
  EXPECT_TRUE(sys.executor().recent_results("alarm").empty());
  EXPECT_TRUE(sys.executor().recent_results("no_such_query").empty());
}

TEST_F(ResultsFixture, ContinuousAvgStreamsPerEpochWindows) {
  // Plain continuous avg() (no WINDOW clause) is a per-epoch aggregate:
  // one row per AQ epoch averaging that epoch's sample.
  ASSERT_TRUE(sys.exec("CREATE AQ watch AS SELECT avg(s.accel_x) "
                       "FROM sensor s")
                  .is_ok());
  sys.run_for(Duration::seconds(10));

  auto rows = sys.executor().recent_results("watch");
  ASSERT_GE(rows.size(), 5u);
  ASSERT_EQ(rows[0].row.size(), 1u);
  EXPECT_EQ(rows[0].row[0].first, "avg(s.accel_x)");
  // One mote, flat signal at 0.0 outside the scripted spikes.
  EXPECT_TRUE(device::value_equal(rows[0].row[0].second, Value{0.0}));
}

// ----------------------------------------------------------------- trace

TEST_F(ResultsFixture, TraceRecordsEventRequestBatchOutcome) {
  sys.tracer().set_enabled(true);
  ASSERT_TRUE(sys.add_camera("cam1", "10.0.0.1", {{0, 0, 3}, 0.0}).is_ok());
  sys.camera("cam1")->reliability().glitch_prob = 0.0;
  sys.camera("cam1")->set_fatigue_coeff(0.0);
  ASSERT_TRUE(sys.exec("CREATE AQ snap AS SELECT photo(c.ip, s.loc, 'd') "
                       "FROM sensor s, camera c "
                       "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)")
                  .is_ok());
  sys.run_for(Duration::seconds(60));

  // Query-level instants: `event:<aq>` (eval), `request:<aq>`,
  // `batch:<action>` and `outcome:<aq>` (action).
  std::vector<obs::Span> entries;
  std::map<std::string, int> kinds;
  for (const obs::Span& span : sys.tracer().snapshot()) {
    std::string kind = span.name.substr(0, span.name.find(':'));
    bool query_level =
        (span.cat == obs::SpanCat::kEval && kind == "event") ||
        (span.cat == obs::SpanCat::kAction &&
         (kind == "request" || kind == "batch" || kind == "outcome"));
    if (!query_level) continue;
    EXPECT_EQ(span.dur, Duration::zero()) << span.name;
    ++kinds[kind];
    entries.push_back(span);
  }
  EXPECT_EQ(kinds["event"], 2);
  EXPECT_EQ(kinds["request"], 2);
  EXPECT_EQ(kinds["batch"], 2);
  EXPECT_EQ(kinds["outcome"], 2);

  // Entries are chronological and carry the owning query where relevant.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1].start, entries[i].start);
  }
  bool saw_query = false;
  for (const obs::Span& span : entries) {
    if (span.name.rfind("outcome:", 0) == 0) {
      EXPECT_EQ(span.name, "outcome:snap");
      EXPECT_NE(span.detail.find("photo on cam1"), std::string::npos);
      saw_query = true;
    }
  }
  EXPECT_TRUE(saw_query);
}

// ------------------------------------------------------------------- LPT

TEST(LptTest, ValidAndCompetitive) {
  auto model = sched::PhotoCostModel::axis2130();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sched::WorkloadSpec spec;
    spec.n_requests = 20;
    spec.n_devices = 10;
    spec.seed = seed;
    sched::Workload w = sched::make_photo_workload(spec);

    util::Rng rng1(seed), rng2(seed);
    auto lpt = sched::make_scheduler("LPT")->schedule(w.requests, w.devices,
                                                      *model, rng1);
    auto random = sched::make_scheduler("RANDOM")->schedule(
        w.requests, w.devices, *model, rng2);
    EXPECT_TRUE(
        sched::validate_schedule(lpt, w.requests, w.devices, *model).is_ok());
    EXPECT_TRUE(lpt.unassigned.empty());
    EXPECT_LT(lpt.service_makespan_s, random.service_makespan_s);
  }
}

TEST(LptTest, LongestRequestPlacedFirst) {
  sched::FixedCostModel model;
  std::vector<sched::ActionRequest> requests(3);
  double costs[3] = {1.0, 5.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    auto& r = requests[static_cast<std::size_t>(i)];
    r.id = static_cast<std::uint64_t>(i + 1);
    r.base_cost_s = costs[i];
    r.candidates = {"d1", "d2"};
  }
  std::vector<sched::SchedDevice> devices(2);
  devices[0].id = "d1";
  devices[1].id = "d2";
  util::Rng rng(1);
  auto result = sched::LptScheduler().schedule(requests, devices, model, rng);
  // LPT: 5 goes alone to one device, 2 and 1 share the other -> makespan 5.
  EXPECT_DOUBLE_EQ(result.service_makespan_s, 5.0);
}

// -------------------------------------------------- parser fuzz / roundtrip

TEST(ParserFuzzTest, RandomInputNeverCrashes) {
  // Seeded random strings over a token-ish alphabet: the parser must
  // either parse or return a clean error, never crash or hang.
  const std::vector<std::string> vocabulary = {
      "SELECT", "FROM",  "WHERE", "CREATE", "AQ",    "ACTION",  "AS",
      "AND",    "OR",    "NOT",   "EVERY",  "DROP",  "SHOW",    "EXPLAIN",
      "s",      "c",     "photo", "sensor", "camera", "accel_x", "loc",
      "(",      ")",     ",",     ".",      ";",     "+",       "-",
      "*",      "/",     ">",     "<",      "=",     "<>",      "<=",
      "'str'",  "\"q\"", "42",    "3.5",    "TRUE",  "NULL",    "@@",
  };
  util::Rng rng(20260707);
  for (int round = 0; round < 2000; ++round) {
    std::string input;
    int tokens = static_cast<int>(rng.uniform_int(0, 24));
    for (int t = 0; t < tokens; ++t) {
      input += vocabulary[rng.index(vocabulary.size())];
      input += ' ';
    }
    auto result = query::parse(input);
    (void)result;  // either outcome is fine; surviving is the property
  }
  SUCCEED();
}

// Random well-formed expression trees must survive a
// to_string -> parse -> to_string round trip unchanged.
query::ExprPtr random_expr(util::Rng& rng, int depth) {
  using query::Expr;
  if (depth <= 0 || rng.chance(0.3)) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return Expr::make_literal(Value{static_cast<double>(
            rng.uniform_int(0, 99)) + 0.5});
      case 1:
        return Expr::make_literal(Value{std::string("txt")});
      case 2:
        return Expr::make_column("t", "col" + std::to_string(rng.index(4)));
      default:
        return Expr::make_column("", "bare" + std::to_string(rng.index(4)));
    }
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      std::vector<query::ExprPtr> args;
      for (std::size_t i = rng.index(3); i > 0; --i) {
        args.push_back(random_expr(rng, depth - 1));
      }
      return Expr::make_func("fn" + std::to_string(rng.index(3)),
                             std::move(args));
    }
    case 1:
      return Expr::make_not(random_expr(rng, depth - 1));
    default: {
      auto op = static_cast<query::BinaryOp>(rng.uniform_int(0, 11));
      return Expr::make_binary(op, random_expr(rng, depth - 1),
                               random_expr(rng, depth - 1));
    }
  }
}

TEST(ParserRoundTripTest, ExpressionsSurviveToStringParse) {
  util::Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    query::ExprPtr original = random_expr(rng, 4);
    std::string text = original->to_string();
    auto reparsed = query::parse_expression(text);
    ASSERT_TRUE(reparsed.is_ok()) << text << ": "
                                  << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value()->to_string(), text) << text;
  }
}

}  // namespace
}  // namespace aorta
