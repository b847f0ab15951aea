// Tests for compile()'s lower-or-reject contract (DESIGN.md §8) and the
// one aggregate fold (DESIGN.md §15):
//
//  - SELECT * expands at compile time, so a continuous AQ delivers one
//    column per catalog attribute, labelled exactly like the one-shot
//    SELECT *, on the single engine and through the sharded plane;
//  - statements with an unknown function, an aggregate nested in an
//    expression or an unknown unqualified column fail at CREATE AQ /
//    SELECT with an error naming it, on the single engine and through the
//    czar, and a rejected sharded CREATE AQ leaves nothing registered;
//  - the one-shot SELECT fold and the continuous per-epoch window fold
//    agree value for value over NULL, string and numeric inputs, at 1 and
//    4 shards;
//  - one-shot SELECTs over static, sensory and mixed columns, aggregates,
//    an empty result and an unreachable device return the same rows on
//    the single engine and at 1 and 4 shards, run after run.
#include <gtest/gtest.h>

#include <algorithm>
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
using util::Duration;

std::string value_key(const Value& v) {
  char buf[96];
  if (std::holds_alternative<std::monostate>(v)) return "null";
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    std::snprintf(buf, sizeof(buf), "i%lld", static_cast<long long>(*i));
    return buf;
  }
  if (const double* d = std::get_if<double>(&v)) {
    std::snprintf(buf, sizeof(buf), "d%.17g", *d);
    return buf;
  }
  if (const std::string* s = std::get_if<std::string>(&v)) {
    std::string out = "s";
    out += *s;
    return out;
  }
  const auto& loc = std::get<device::Location>(v);
  std::snprintf(buf, sizeof(buf), "(%.17g,%.17g,%.17g)", loc.x, loc.y, loc.z);
  return buf;
}

std::string row_key(const query::Row& row) {
  std::string key;
  for (const auto& [name, value] : row) {
    key += name;
    key += '=';
    key += value_key(value);
    key += '|';
  }
  return key;
}

std::vector<std::string> labels_of(const query::Row& row) {
  std::vector<std::string> out;
  for (const auto& [name, value] : row) out.push_back(name);
  return out;
}

// Lossless, glitch-free constant-temperature motes; accel_x alternates
// 0 / 900 mg at successive 1 s epochs, so an accel_x > 500 AQ fires every
// other epoch. Temps: 20 (its temp / (temp - 20) is NULL), 21, 22, 24,
// 28, 36 and one cold mote (10) every `WHERE s.temp > 15` excludes; every
// derived value is exact in binary, so fold order cannot matter.
constexpr double kTemps[] = {20, 21, 22, 24, 28, 36, 10};

void add_motes(core::Aorta& sys, shard::Plane* plane) {
  for (std::size_t i = 0; i < std::size(kTemps); ++i) {
    std::string id = "m";
    id += std::to_string(i);
    devices::Mica2Mote* mote = nullptr;
    if (plane != nullptr) {
      ASSERT_TRUE(plane->add_mote(id, {double(i), 0, 1}).is_ok());
      mote = plane->mote(id);
      (void)sys.network().set_link(id, shard::backplane_link());
    } else {
      ASSERT_TRUE(sys.add_mote(id, {double(i), 0, 1}).is_ok());
      mote = sys.mote(id);
      auto link = net::LinkModel::mote_radio();
      link.loss_prob = 0.0;
      (void)sys.network().set_link(id, link);
    }
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(kTemps[i]));
    (void)mote->set_signal(
        "accel_x",
        devices::periodic_spike_signal(0.0, 900.0, Duration::seconds(2.0),
                                       Duration::seconds(0.5),
                                       Duration::zero()));
  }
}

// A single engine or a QueryService over `num_shards` shards, driven
// through one session so both planes answer the same way.
struct World {
  explicit World(int num_shards) : sys(core::Config{}) {
    if (num_shards == 0) {
      add_motes(sys, nullptr);
      return;
    }
    ServiceConfig cfg;
    cfg.num_shards = num_shards;
    cfg.mailbox_capacity = 1 << 16;
    service = std::make_unique<QueryService>(&sys, cfg);
    session = service->connect("t");
    add_motes(sys, service->plane());
  }

  // Runs one statement to completion: rows on success, the error
  // message on failure.
  util::Result<std::vector<query::Row>> exec(const std::string& sql) {
    if (service == nullptr) {
      auto r = sys.exec(sql);
      if (!r.is_ok()) return util::Result<std::vector<query::Row>>(r.status());
      return r.value().rows;
    }
    auto submitted = service->submit(session, sql);
    if (!submitted.is_ok()) {
      return util::Result<std::vector<query::Row>>(submitted.status());
    }
    for (int step = 0; step < 40; ++step) {
      sys.run_for(Duration::seconds(0.25));
      for (Delivery& d : service->session(session)->drain()) {
        if (d.kind == Delivery::Kind::kRow) {
          aq_rows.push_back(std::move(d.rows.front()));
        } else if (d.kind == Delivery::Kind::kError) {
          return util::Result<std::vector<query::Row>>(
              util::invalid_argument_error(d.message));
        } else if (d.kind == Delivery::Kind::kResult) {
          return std::move(d.rows);
        }
      }
    }
    return util::Result<std::vector<query::Row>>(
        util::internal_error("statement never completed: " + sql));
  }

  // Rows the named continuous query delivered after `seconds` more.
  std::vector<query::Row> run_aq(const std::string& name, double seconds) {
    sys.run_for(Duration::seconds(seconds));
    if (service == nullptr) {
      std::vector<query::Row> out;
      for (auto& r : sys.executor().recent_results(name)) {
        out.push_back(std::move(r.row));
      }
      return out;
    }
    for (Delivery& d : service->session(session)->drain()) {
      if (d.kind == Delivery::Kind::kRow) {
        aq_rows.push_back(std::move(d.rows.front()));
      }
    }
    return aq_rows;
  }

  core::Aorta sys;
  std::unique_ptr<QueryService> service;
  SessionId session = 0;
  std::vector<query::Row> aq_rows;
};

// ------------------------------------------------------------- SELECT *

void expect_star_aq_delivers_every_attribute(int num_shards) {
  World w(num_shards);
  auto once = w.exec("SELECT * FROM sensor s WHERE s.id = 'm1'");
  ASSERT_TRUE(once.is_ok()) << once.status().message();
  ASSERT_EQ(once.value().size(), 1u);
  const std::vector<std::string> labels = labels_of(once.value()[0]);
  ASSERT_EQ(labels.size(), devices::sensor_type_info().catalog.attrs().size());

  auto created = w.exec(
      "CREATE AQ star AS SELECT * FROM sensor s WHERE s.accel_x > 500");
  ASSERT_TRUE(created.is_ok()) << created.status().message();
  std::vector<query::Row> rows = w.run_aq("star", 6.0);
  ASSERT_FALSE(rows.empty());
  for (const query::Row& row : rows) {
    EXPECT_EQ(labels_of(row), labels);
    for (const auto& [name, value] : row) {
      if (name == "s.id") {
        EXPECT_TRUE(std::holds_alternative<std::string>(value));
      }
      if (name == "s.accel_x") {
        double x = 0;
        ASSERT_TRUE(device::value_as_double(value, &x)) << name;
        EXPECT_GT(x, 500.0);
      }
    }
  }
}

TEST(LoweringTest, StarAqDeliversEveryAttributeOnTheEngine) {
  expect_star_aq_delivers_every_attribute(0);
}

TEST(LoweringTest, StarAqDeliversEveryAttributeThroughFourShards) {
  expect_star_aq_delivers_every_attribute(4);
}

// -------------------------------------------------- lower or reject

void expect_unlowered_statements_fail(int num_shards) {
  World w(num_shards);
  struct Case {
    const char* sql;
    const char* names;
  };
  const Case cases[] = {
      {"CREATE AQ f AS SELECT s.id FROM sensor s WHERE nosuchfn(s.temp) > 1",
       "nosuchfn"},
      {"SELECT sum(s.temp) + 1 FROM sensor s", "sum"},
      {"CREATE AQ c AS SELECT count(*) + 1 FROM sensor s", "count"},
      {"SELECT nosuchcol FROM sensor s", "nosuchcol"},
  };
  for (const Case& c : cases) {
    auto r = w.exec(c.sql);
    ASSERT_FALSE(r.is_ok()) << c.sql;
    EXPECT_NE(r.status().message().find(c.names), std::string::npos)
        << c.sql << ": " << r.status().message();
  }
  if (num_shards > 0) {
    // A rejected sharded CREATE AQ leaves nothing registered anywhere.
    const obs::MetricsRegistry& m = w.sys.metrics();
    EXPECT_EQ(m.gauge_value("shard.czar.aqs_active"), 0);
    for (int i = 0; i < num_shards; ++i) {
      EXPECT_EQ(m.gauge_value("shard." + std::to_string(i) +
                              ".fragments.active"),
                0)
          << "shard " << i;
    }
  } else {
    EXPECT_TRUE(w.sys.executor().aq_names().empty());
  }
}

TEST(LoweringTest, UnloweredStatementsFailOnTheEngine) {
  expect_unlowered_statements_fail(0);
}

TEST(LoweringTest, UnloweredStatementsFailThroughTheCzar) {
  expect_unlowered_statements_fail(4);
}

// ------------------------------------------------------- fold parity

void expect_one_shot_matches_first_window(int num_shards) {
  const std::string select =
      "SELECT count(*), count(s.id), count(s.temp / (s.temp - 20)), "
      "sum(s.temp / (s.temp - 20)), avg(s.temp), min(s.temp), max(s.temp), "
      "min(s.id) FROM sensor s WHERE s.temp > 15";
  World w(num_shards);
  auto once = w.exec(select);
  ASSERT_TRUE(once.is_ok()) << once.status().message();
  ASSERT_EQ(once.value().size(), 1u);
  const query::Row& expected = once.value()[0];
  // Hand-checked: six motes pass, 20 yields a NULL quotient, ids are
  // strings (counted, never numeric).
  EXPECT_EQ(row_key(expected),
            "count(*)=i6|count(s.id)=i6|count((s.temp / (s.temp - 20)))=i5|"
            "sum((s.temp / (s.temp - 20)))=d43.75|"
            "avg(s.temp)=d25.166666666666668|min(s.temp)=d20|"
            "max(s.temp)=d36|min(s.id)=null|");

  auto created = w.exec("CREATE AQ parity AS " + select);
  ASSERT_TRUE(created.is_ok()) << created.status().message();
  std::vector<query::Row> windows = w.run_aq("parity", 3.0);
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(row_key(windows.front()), row_key(expected));
}

TEST(FoldParityTest, OneShotMatchesFirstWindowOnTheEngine) {
  expect_one_shot_matches_first_window(0);
}

TEST(FoldParityTest, OneShotMatchesFirstWindowAtOneShard) {
  expect_one_shot_matches_first_window(1);
}

TEST(FoldParityTest, OneShotMatchesFirstWindowAtFourShards) {
  expect_one_shot_matches_first_window(4);
}

// ------------------------------------------------ one-shot results

// Each statement's rows as sorted row keys (the czar concatenates the
// shards' rows in shard order), twice over: every statement runs once,
// then the whole list again, so later runs read tuples and value buffers
// earlier ones left for reuse. m6 is offline: the sensory statements skip
// it, the static ones keep it.
std::vector<std::vector<std::string>> one_shot_results(int num_shards) {
  const char* const kSelects[] = {
      "SELECT s.id, s.loc FROM sensor s WHERE s.hops = 1",
      "SELECT s.id, s.temp FROM sensor s",
      "SELECT s.id, s.loc, s.temp FROM sensor s WHERE s.temp < 30",
      "SELECT count(*), max(s.temp), avg(s.temp) FROM sensor s",
      "SELECT count(*), max(s.hops) FROM sensor s",
      "SELECT s.id FROM sensor s WHERE s.temp > 100",
      "SELECT s.id FROM sensor s",
  };
  World w(num_shards);
  devices::Mica2Mote* offline = num_shards == 0
                                    ? w.sys.mote("m6")
                                    : w.service->plane()->mote("m6");
  EXPECT_NE(offline, nullptr);
  if (offline != nullptr) offline->set_online(false);
  std::vector<std::vector<std::string>> out;
  for (int round = 0; round < 2; ++round) {
    for (const char* sql : kSelects) {
      auto rows = w.exec(sql);
      EXPECT_TRUE(rows.is_ok()) << sql << ": " << rows.status().message();
      std::vector<std::string> keys;
      if (rows.is_ok()) {
        for (const query::Row& row : rows.value()) keys.push_back(row_key(row));
      }
      std::sort(keys.begin(), keys.end());
      out.push_back(std::move(keys));
    }
  }
  return out;
}

TEST(OneShotResultTest, SameRowsOnTheEngineAndAtOneAndFourShards) {
  const std::vector<std::vector<std::string>> engine = one_shot_results(0);
  ASSERT_EQ(engine.size(), 14u);
  // Hand-checked on the engine: the static statements see all seven
  // motes, the sensory ones the six online; the empty result has no row.
  EXPECT_EQ(engine[0].size(), 7u);
  EXPECT_EQ(engine[1].size(), 6u);
  EXPECT_EQ(engine[2].size(), 5u);
  EXPECT_EQ(engine[3],
            std::vector<std::string>{"count(*)=i6|max(s.temp)=d36|"
                                     "avg(s.temp)=d25.166666666666668|"});
  EXPECT_EQ(engine[4],
            std::vector<std::string>{"count(*)=i7|max(s.hops)=d1|"});
  EXPECT_TRUE(engine[5].empty());
  EXPECT_EQ(engine[6].size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(engine[i + 7], engine[i]) << "second run of statement " << i;
  }
  EXPECT_EQ(one_shot_results(1), engine);
  EXPECT_EQ(one_shot_results(4), engine);
}

}  // namespace
}  // namespace aorta
