// Tests for the shared data-acquisition plane (comm::ScanBroker): union
// scans, per-subscriber projection, the freshness cache, in-flight read
// dedup, unsubscribe-while-in-flight, the per-type device table, and the
// executor's epoch clamping.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "comm/scan_broker.h"
#include "core/aorta.h"
#include "device/health.h"
#include "devices/mote.h"
#include "util/logging.h"

namespace aorta {
namespace {

using device::Value;
using util::Duration;

struct BrokerFixture : public ::testing::Test {
  BrokerFixture()
      : loop(&clock),
        network(&loop, util::Rng(1)),
        registry(&network, &loop, util::Rng(2)),
        comm(&registry, &network) {
    (void)registry.register_type(devices::sensor_type_info());
    (void)registry.register_type(devices::camera_type_info());
  }

  devices::Mica2Mote* add_mote(const std::string& id, double temp = 20.0,
                               device::Location loc = {1, 2, 3},
                               int hops = 1) {
    auto mote = std::make_unique<devices::Mica2Mote>(id, loc, hops);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(temp));
    (void)mote->set_signal("light", devices::constant_signal(300.0));
    devices::Mica2Mote* raw = mote.get();
    EXPECT_TRUE(registry.add(std::move(mote)).is_ok());
    (void)network.set_link(id, net::LinkModel::perfect());
    return raw;
  }

  util::SimClock clock;
  util::EventLoop loop;
  net::Network network;
  device::DeviceRegistry registry;
  comm::CommLayer comm;
};

// The core regression of the refactor: two subscribers with different
// projected attribute sets over the same device type cause exactly ONE
// union-attribute fetch per device per epoch, and each subscriber's rows
// carry only its own needed attributes.
TEST_F(BrokerFixture, UnionScanFetchesEachDeviceOncePerEpoch) {
  add_mote("m1");
  add_mote("m2");
  add_mote("m3");
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::vector<comm::Tuple> temp_rows;
  std::vector<comm::Tuple> light_rows;
  (void)broker.subscribe("sensor", {"temp"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           temp_rows = t;
                         });
  (void)broker.subscribe("sensor", {"light"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           light_rows = t;
                         });

  for (int epoch = 1; epoch <= 3; ++epoch) {
    bool flushed = false;
    broker.tick([&]() { flushed = true; });
    loop.run_all();
    EXPECT_TRUE(flushed);

    const comm::BrokerTypeStats& s = broker.stats().at("sensor");
    // One batch per epoch, fetching the union {temp, light} from each of
    // the 3 devices: 6 RPCs per epoch — not the 2x a per-query plan pays.
    EXPECT_EQ(s.batches, static_cast<std::uint64_t>(epoch));
    EXPECT_EQ(s.rpcs_issued, static_cast<std::uint64_t>(epoch) * 3u * 2u);
    EXPECT_EQ(s.rpcs_coalesced, 0u);

    ASSERT_EQ(temp_rows.size(), 3u);
    ASSERT_EQ(light_rows.size(), 3u);
    for (const comm::Tuple& t : temp_rows) {
      EXPECT_FALSE(std::holds_alternative<std::monostate>(t.get("temp")));
      EXPECT_TRUE(std::holds_alternative<std::monostate>(t.get("light")));
    }
    for (const comm::Tuple& t : light_rows) {
      EXPECT_FALSE(std::holds_alternative<std::monostate>(t.get("light")));
      EXPECT_TRUE(std::holds_alternative<std::monostate>(t.get("temp")));
    }
  }
}

TEST_F(BrokerFixture, FreshnessCacheServesRepeatScansWithoutRpcs) {
  add_mote("m1");
  add_mote("m2");
  comm::ScanBroker::Options opts;
  opts.freshness = Duration::seconds(10.0);
  comm::ScanBroker broker(&registry, &comm, &loop, opts);

  std::size_t deliveries = 0;
  (void)broker.subscribe("sensor", {"temp"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           ++deliveries;
                           EXPECT_EQ(t.size(), 2u);
                         });

  broker.tick({});
  loop.run_all();
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, 2u);
  EXPECT_EQ(broker.stats().at("sensor").cache_hits, 0u);

  // run_all only advanced the clock by the RPC round trips (milliseconds),
  // far inside the 10 s window: the next epoch is served from cache.
  broker.tick({});
  loop.run_all();
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, 2u);
  EXPECT_EQ(broker.stats().at("sensor").cache_hits, 2u);
  EXPECT_EQ(deliveries, 2u);
}

TEST_F(BrokerFixture, ConcurrentOneShotsJoinInflightReads) {
  add_mote("m1");
  add_mote("m2");
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::size_t done = 0;
  auto on_done = [&](std::vector<comm::Tuple> t) {
    ++done;
    EXPECT_EQ(t.size(), 2u);
  };
  // Issue both before the loop runs: the second scan's (device, temp)
  // reads are still in flight and must be joined, not re-sent.
  broker.acquire_once("sensor", {"temp"}, on_done);
  broker.acquire_once("sensor", {"temp"}, on_done);
  loop.run_all();

  EXPECT_EQ(done, 2u);
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, 2u);
  EXPECT_EQ(broker.stats().at("sensor").rpcs_coalesced, 2u);
}

TEST_F(BrokerFixture, UnsubscribeWhileInFlightSuppressesDelivery) {
  add_mote("m1");
  comm::ScanBroker broker(&registry, &comm, &loop);

  bool delivered = false;
  comm::ScanBroker::SubscriptionId id = broker.subscribe(
      "sensor", {"temp"}, 1,
      [&](const std::vector<comm::Tuple>&, std::uint64_t) { delivered = true; });

  bool flushed = false;
  broker.tick([&]() { flushed = true; });  // reads now in flight
  broker.unsubscribe(id);
  loop.run_all();

  EXPECT_FALSE(delivered);
  EXPECT_TRUE(flushed);  // the tick barrier still releases
  EXPECT_EQ(broker.subscriber_count(), 0u);
}

TEST_F(BrokerFixture, UnreachableDeviceSkippedOnlyForAffectedSubscribers) {
  add_mote("m1");
  devices::Mica2Mote* dead = add_mote("m2");
  dead->set_online(false);
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::vector<comm::Tuple> sensory_rows;
  std::vector<comm::Tuple> static_rows;
  (void)broker.subscribe("sensor", {"temp"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           sensory_rows = t;
                         });
  // Needs only the non-sensory `loc`: the dead radio is irrelevant to it.
  (void)broker.subscribe("sensor", {"loc"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           static_rows = t;
                         });

  broker.tick({});
  loop.run_all();

  ASSERT_EQ(sensory_rows.size(), 1u);
  EXPECT_EQ(sensory_rows[0].source_device(), "m1");
  EXPECT_EQ(static_rows.size(), 2u);
  EXPECT_EQ(broker.stats().at("sensor").devices_skipped, 1u);
  EXPECT_GT(broker.stats().at("sensor").read_failures, 0u);
}

TEST_F(BrokerFixture, CoalesceOffRevertsToPrivatePerQueryScans) {
  add_mote("m1");
  add_mote("m2");
  comm::ScanBroker::Options opts;
  opts.coalesce = false;
  comm::ScanBroker broker(&registry, &comm, &loop, opts);

  (void)broker.subscribe("sensor", {"temp"}, 1,
                         [](const std::vector<comm::Tuple>&, std::uint64_t) {});
  (void)broker.subscribe("sensor", {"temp"}, 1,
                         [](const std::vector<comm::Tuple>&, std::uint64_t) {});
  broker.tick({});
  loop.run_all();

  // The ablation baseline pays N x D: two private scans over two devices.
  EXPECT_EQ(broker.stats().at("sensor").batches, 2u);
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, 4u);
  EXPECT_EQ(broker.stats().at("sensor").rpcs_coalesced, 0u);
  EXPECT_EQ(broker.stats().at("sensor").cache_hits, 0u);
}

TEST_F(BrokerFixture, EffectiveCadenceIsGcdOfSubscriberPeriods) {
  comm::ScanBroker broker(&registry, &comm, &loop);
  (void)broker.subscribe("sensor", {}, 4,
                         [](const std::vector<comm::Tuple>&, std::uint64_t) {});
  (void)broker.subscribe("sensor", {}, 6,
                         [](const std::vector<comm::Tuple>&, std::uint64_t) {});
  EXPECT_EQ(broker.effective_period_ticks("sensor"), 2u);
  EXPECT_EQ(broker.subscriber_count("sensor"), 2u);
  EXPECT_EQ(broker.effective_period_ticks("camera"), 0u);
}

TEST_F(BrokerFixture, EmptyTableDeliversEmptyBatchSynchronously) {
  comm::ScanBroker broker(&registry, &comm, &loop);
  bool delivered = false;
  (void)broker.subscribe("camera", {}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           delivered = true;
                           EXPECT_TRUE(t.empty());
                         });
  bool flushed = false;
  broker.tick([&]() { flushed = true; });
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(flushed);
}

// Rows as "<source> <id> <loc> <hops>": the static columns a device
// table serves.
std::vector<std::string> static_rows(const std::vector<comm::Tuple>& rows) {
  std::vector<std::string> out;
  for (const comm::Tuple& t : rows) {
    out.push_back(t.source_device() + " " +
                  device::value_to_string(t.get("id")) + " " +
                  device::value_to_string(t.get("loc")) + " " +
                  device::value_to_string(t.get("hops")));
  }
  return out;
}

// The per-type device table follows the registry: a mote added and another
// removed between two batches show up in the very next batch, ids and
// static values alike, for a periodic subscription and a one-shot each.
TEST_F(BrokerFixture, DeviceTableFollowsTheRegistryBetweenBatches) {
  add_mote("m1");
  add_mote("m2", 20.0, {4, 5, 6}, 2);
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::vector<comm::Tuple> periodic;
  (void)broker.subscribe("sensor", {"id", "loc", "hops"}, 1,
                         [&](const std::vector<comm::Tuple>& t, std::uint64_t) {
                           periodic = t;
                         });
  auto tick = [&]() {
    broker.tick({});
    loop.run_all();
    return static_rows(periodic);
  };
  auto once = [&]() {
    std::vector<comm::Tuple> rows;
    broker.acquire_once("sensor", {"id", "loc", "hops"},
                        [&](std::vector<comm::Tuple> t) { rows = std::move(t); });
    loop.run_all();
    return static_rows(rows);
  };

  const std::vector<std::string> first = {"m1 'm1' (1, 2, 3) 1",
                                          "m2 'm2' (4, 5, 6) 2"};
  EXPECT_EQ(tick(), first);
  EXPECT_EQ(once(), first);

  // One-shot: m3 joins, m1 leaves.
  add_mote("m3", 20.0, {7, 8, 9}, 3);
  ASSERT_TRUE(registry.remove("m1").is_ok());
  EXPECT_EQ(once(), (std::vector<std::string>{"m2 'm2' (4, 5, 6) 2",
                                              "m3 'm3' (7, 8, 9) 3"}));

  // Periodic: m0 joins (sorting first), m2 leaves.
  add_mote("m0", 20.0, {0, 0, 1}, 4);
  ASSERT_TRUE(registry.remove("m2").is_ok());
  const std::vector<std::string> last = {"m0 'm0' (0, 0, 1) 4",
                                         "m3 'm3' (7, 8, 9) 3"};
  EXPECT_EQ(tick(), last);
  EXPECT_EQ(once(), last);
}

// A HealthView over a quarantine set that changes only through
// quarantine/release, each of which moves the version.
struct QuarantineSet : device::HealthView {
  std::set<device::DeviceId> ids;
  std::uint64_t moves = 0;
  void quarantine(const device::DeviceId& id) {
    ids.insert(id);
    ++moves;
  }
  void release(const device::DeviceId& id) {
    ids.erase(id);
    ++moves;
  }
  bool is_quarantined(const device::DeviceId& id) const override {
    return ids.count(id) > 0;
  }
  std::uint64_t version() const override { return moves; }
  void report(const device::DeviceId&, device::HealthOutcomeKind,
              bool) override {}
};

// "<source>:<non-NULL columns in slot order>[ degraded]".
std::string shape(const comm::Tuple& t) {
  std::string out = t.source_device() + ":";
  const char* sep = "";
  for (std::size_t i = 0; i < t.schema()->size(); ++i) {
    if (std::holds_alternative<std::monostate>(t.at(i))) continue;
    out += sep + t.schema()->fields()[i].name;
    sep = ",";
  }
  return t.degraded() ? out + " degraded" : out;
}

std::vector<std::string> shapes(const std::vector<comm::Tuple>& rows) {
  std::vector<std::string> out;
  for (const comm::Tuple& t : rows) out.push_back(shape(t));
  return out;
}

// The projection contract of a shared batch: four waiters with needs {}
// (every attribute), {loc, temp}, {hops} and {nope} (no schema attribute)
// share one batch in which m2 is quarantined with a last-known-good temp
// and m3's reads all fail. Each waiter sees exactly its own columns, the
// degraded marker rides every m2 row, and m3 is skipped only by the
// waiters that needed a sensory read. A lone waiter gets the same tuples
// as the masked copy a shared batch gives it.
TEST_F(BrokerFixture, SharedBatchMasksEveryWaiterToItsNeeds) {
  add_mote("m1", 21.0);
  add_mote("m2", 23.0);
  devices::Mica2Mote* dead = add_mote("m3");
  QuarantineSet health;
  comm::ScanBroker::Options opts;
  opts.degraded_staleness = Duration::seconds(60.0);
  comm::ScanBroker broker(&registry, &comm, &loop, opts);
  broker.set_health(&health);

  // Read every mote's temp while all are healthy: m2's value becomes its
  // last-known-good.
  broker.acquire_once("sensor", {"temp"}, [](std::vector<comm::Tuple>) {});
  loop.run_all();
  health.quarantine("m2");
  dead->set_online(false);

  std::map<std::string, std::vector<comm::Tuple>> got;
  for (const auto& [name, needed] :
       std::map<std::string, std::set<std::string>>{
           {"all", {}}, {"loc_temp", {"loc", "temp"}},
           {"hops", {"hops"}}, {"nope", {"nope"}}}) {
    (void)broker.subscribe(
        "sensor", needed, 1,
        [&got, name = name](const std::vector<comm::Tuple>& t,
                            std::uint64_t) { got[name] = t; });
  }
  const comm::BrokerTypeStats before = broker.stats().at("sensor");
  broker.tick({});
  loop.run_all();
  const comm::BrokerTypeStats& after = broker.stats().at("sensor");

  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.deliveries - before.deliveries, 4u);
  EXPECT_EQ(shapes(got["all"]),
            (std::vector<std::string>{
                "m1:id,loc,hops,accel_x,accel_y,light,temp,battery_v",
                "m2:id,loc,hops,temp degraded"}));
  EXPECT_EQ(shapes(got["loc_temp"]),
            (std::vector<std::string>{"m1:loc,temp", "m2:loc,temp degraded"}));
  EXPECT_EQ(shapes(got["hops"]),
            (std::vector<std::string>{"m1:hops", "m2:hops degraded",
                                      "m3:hops"}));
  EXPECT_EQ(shapes(got["nope"]),
            (std::vector<std::string>{"m1:", "m2: degraded", "m3:"}));
  EXPECT_EQ(got["loc_temp"][0].get("temp"), Value{21.0});
  EXPECT_EQ(got["loc_temp"][1].get("temp"), Value{23.0});
  // m3 is skipped by {} and {loc, temp} only; m2 rides every waiter.
  EXPECT_EQ(after.devices_skipped - before.devices_skipped, 2u);
  EXPECT_EQ(after.tuples_delivered - before.tuples_delivered, 10u);
  EXPECT_EQ(after.degraded_tuples - before.degraded_tuples, 4u);
  EXPECT_EQ(after.degraded_reads - before.degraded_reads, 1u);
  EXPECT_EQ(after.quarantined_skips - before.quarantined_skips, 1u);

  // A name outside the schema selects nothing, so it reads nothing.
  const std::uint64_t rpcs = after.rpcs_issued;
  std::vector<comm::Tuple> nope;
  broker.acquire_once("sensor", {"nope"},
                      [&](std::vector<comm::Tuple> t) { nope = std::move(t); });
  loop.run_all();
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, rpcs);
  EXPECT_EQ(shapes(nope), shapes(got["nope"]));

  // A lone one-shot waiter takes the master tuples; they equal the masked
  // copy the shared batch gave the same needs.
  std::vector<comm::Tuple> lone;
  broker.acquire_once("sensor", {"loc", "temp"},
                      [&](std::vector<comm::Tuple> t) { lone = std::move(t); });
  loop.run_all();
  const std::vector<comm::Tuple>& copied = got["loc_temp"];
  ASSERT_EQ(lone.size(), copied.size());
  for (std::size_t d = 0; d < lone.size(); ++d) {
    EXPECT_EQ(lone[d].source_device(), copied[d].source_device());
    EXPECT_EQ(lone[d].degraded(), copied[d].degraded());
    ASSERT_EQ(lone[d].schema(), copied[d].schema());
    for (std::size_t i = 0; i < lone[d].schema()->size(); ++i) {
      EXPECT_EQ(lone[d].at(i), copied[d].at(i))
          << lone[d].source_device() << " slot " << i;
    }
  }

  // Consecutive one-shots reuse the type's tuple block: a wide one, a
  // narrow one and the wide one again each see NULL outside their own
  // slots, and m2's degraded marker follows it out of quarantine and back
  // in between two acquisitions.
  auto once = [&](const std::set<std::string>& needed) {
    std::vector<std::string> out;
    broker.acquire_once("sensor", needed,
                        [&](const std::vector<comm::Tuple>& t) {
                          out = shapes(t);
                        });
    loop.run_all();
    return out;
  };
  EXPECT_EQ(once({}), shapes(got["all"]));
  EXPECT_EQ(once({"hops"}), shapes(got["hops"]));
  EXPECT_EQ(once({}), shapes(got["all"]));
  health.release("m2");
  EXPECT_EQ(once({"hops"}),
            (std::vector<std::string>{"m1:hops", "m2:hops", "m3:hops"}));
  EXPECT_EQ(once({"loc", "temp"}),
            (std::vector<std::string>{"m1:loc,temp", "m2:loc,temp"}));
  health.quarantine("m2");
  EXPECT_EQ(once({"hops"}), shapes(got["hops"]));
  EXPECT_EQ(once({"loc", "temp"}), shapes(got["loc_temp"]));
}

// ---------------------------------------------------- executor integration

// An AQ requesting an epoch shorter than the engine epoch used to be
// silently clamped; it must now be clamped WITH a logged warning.
TEST(ScanBrokerExecutorTest, SubEpochAqIsClampedWithWarning) {
  std::vector<std::string> warnings;
  util::Logger::instance().set_sink(
      [&](util::LogLevel level, const std::string& line) {
        if (level == util::LogLevel::kWarn) warnings.push_back(line);
      });

  core::Config cfg;
  core::Aorta sys(cfg);  // engine epoch 1 s
  (void)sys.add_mote("m1", {0, 0, 1});
  ASSERT_TRUE(
      sys.exec("CREATE AQ fast EVERY 0.2 AS "
               "SELECT s.temp FROM sensor s WHERE s.temp > 1000")
          .is_ok());
  ASSERT_TRUE(
      sys.exec("CREATE AQ slow EVERY 5 AS "
               "SELECT s.temp FROM sensor s WHERE s.temp > 1000")
          .is_ok());

  util::Logger::instance().set_sink([](util::LogLevel, const std::string& l) {
    std::fputs(l.c_str(), stderr);
    std::fputc('\n', stderr);
  });

  EXPECT_EQ(sys.executor().aq_epoch_ticks("fast"), 1u);
  EXPECT_EQ(sys.executor().aq_epoch_ticks("slow"), 5u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("fast"), std::string::npos);
  EXPECT_NE(warnings[0].find("clamping"), std::string::npos);
}

// Two AQs over the same table share one union sweep per engine epoch.
TEST(ScanBrokerExecutorTest, CoLocatedAqsShareOneSweepPerEpoch) {
  core::Config cfg;
  core::Aorta sys(cfg);
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(sys.add_mote(id, {static_cast<double>(i), 0, 1}).is_ok());
    sys.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, net::LinkModel::perfect());
  }
  ASSERT_TRUE(sys.exec("CREATE AQ a AS "
                       "SELECT s.temp FROM sensor s WHERE s.temp > 1000")
                  .is_ok());
  ASSERT_TRUE(sys.exec("CREATE AQ b AS "
                       "SELECT s.light FROM sensor s WHERE s.light > 1000")
                  .is_ok());
  sys.run_for(Duration::seconds(10));

  const comm::BrokerTypeStats& s = sys.scan_broker().stats().at("sensor");
  EXPECT_GE(s.batches, 5u);
  // Every batch fetched exactly the union {temp, light} from all 4 motes.
  EXPECT_EQ(s.rpcs_issued, s.batches * 4u * 2u);
  EXPECT_EQ(sys.scan_broker().subscriber_count("sensor"), 2u);
  const query::QueryStats* qa = sys.query_stats("a");
  ASSERT_NE(qa, nullptr);
  EXPECT_GE(qa->epochs, 5u);
}

}  // namespace
}  // namespace aorta
