// Tests for the uniform data communication layer: schemas/tuples, the
// basic communication methods, and scans over virtual tables.
#include <gtest/gtest.h>

#include "comm/scan_broker.h"
#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"

namespace aorta {
namespace {

using device::Value;
using util::Duration;

// ---------------------------------------------------------- schema/tuple

TEST(SchemaTest, FromCatalogPreservesOrderAndSensoryFlags) {
  comm::Schema schema = comm::Schema::from_catalog(
      devices::sensor_type_info().catalog);
  EXPECT_EQ(schema.table_name(), "sensor");
  ASSERT_GE(schema.size(), 5u);
  EXPECT_EQ(schema.fields()[0].name, "id");
  EXPECT_FALSE(schema.fields()[0].sensory);
  ASSERT_TRUE(schema.index_of("accel_x").has_value());
  EXPECT_TRUE(schema.field("accel_x")->sensory);
  EXPECT_FALSE(schema.index_of("nonexistent").has_value());
  EXPECT_EQ(schema.field("nonexistent"), nullptr);
}

TEST(TupleTest, GetSetByNameAndIndex) {
  comm::Schema schema("t", {{"a", device::AttrType::kDouble, true},
                            {"b", device::AttrType::kString, false}});
  comm::Tuple tuple(&schema, "dev1");
  EXPECT_EQ(tuple.source_device(), "dev1");
  // Unset values are NULL.
  EXPECT_TRUE(std::holds_alternative<std::monostate>(tuple.get("a")));
  tuple.set_by_name("a", Value{1.5});
  tuple.set(1, Value{std::string("x")});
  EXPECT_TRUE(device::value_equal(tuple.get("a"), Value{1.5}));
  EXPECT_TRUE(device::value_equal(tuple.at(1), Value{std::string("x")}));
  // Unknown names are NULL / ignored.
  EXPECT_TRUE(std::holds_alternative<std::monostate>(tuple.get("zzz")));
  tuple.set_by_name("zzz", Value{2.0});  // no crash
  EXPECT_NE(tuple.to_string().find("a=1.5"), std::string::npos);
}

TEST(TupleTest, UnknownNameReturnsNullSentinel) {
  comm::Schema schema("t", {{"a", device::AttrType::kDouble, true}});
  comm::Tuple tuple(&schema, "dev1");
  tuple.set(0, Value{3.0});
  // Unknown names resolve to the shared NULL sentinel, which callers can
  // identify by address. Known names never alias it.
  EXPECT_EQ(&tuple.get("nope"), &comm::Tuple::null_sentinel());
  EXPECT_NE(&tuple.get("a"), &comm::Tuple::null_sentinel());
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(comm::Tuple::null_sentinel()));
  // A schema-less tuple resolves every name to the sentinel.
  comm::Tuple bare(nullptr, "dev2");
  EXPECT_EQ(&bare.get("a"), &comm::Tuple::null_sentinel());
  // The sentinel is a distinct object per process, not per call.
  EXPECT_EQ(&comm::Tuple::null_sentinel(), &comm::Tuple::null_sentinel());
}

// ---------------------------------------------------------------- fixture

struct CommFixture : public ::testing::Test {
  CommFixture()
      : loop(&clock),
        network(&loop, util::Rng(1)),
        registry(&network, &loop, util::Rng(2)),
        comm(&registry, &network) {
    (void)registry.register_type(devices::camera_type_info());
    (void)registry.register_type(devices::sensor_type_info());
    (void)registry.register_type(devices::phone_type_info());
  }

  devices::Mica2Mote* add_mote(const std::string& id, double temp = 20.0) {
    auto mote = std::make_unique<devices::Mica2Mote>(
        id, device::Location{1, 2, 3});
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(temp));
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

// ------------------------------------------------------------ comm layer

TEST_F(CommFixture, ModuleLookupByDeviceType) {
  EXPECT_EQ(comm.module_for("camera"), &comm.camera());
  EXPECT_EQ(comm.module_for("sensor"), &comm.mote());
  EXPECT_EQ(comm.module_for("phone"), &comm.phone());
  EXPECT_EQ(comm.module_for("toaster"), nullptr);
}

TEST_F(CommFixture, ConnectEstablishesLogicalSession) {
  add_mote("m1");
  bool connected = false;
  comm.mote().connect("m1", [&](util::Status s) { connected = s.is_ok(); });
  loop.run_all();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(comm.mote().is_connected("m1"));
  comm.mote().close("m1");
  EXPECT_FALSE(comm.mote().is_connected("m1"));
}

TEST_F(CommFixture, ConnectFailsForSilentDevice) {
  devices::Mica2Mote* mote = add_mote("m1");
  mote->set_online(false);
  bool failed = false;
  // Offline devices bounce requests at delivery time (net/network.cc), so
  // the failure is kUnavailable and arrives before the RPC timeout.
  comm.mote().connect("m1", [&](util::Status s) {
    failed = s.code() == util::StatusCode::kUnavailable;
  });
  loop.run_all();
  EXPECT_TRUE(failed);
  EXPECT_FALSE(comm.mote().is_connected("m1"));
}

TEST_F(CommFixture, ReadFailsFastWhenDeviceGoesOfflineMidFlight) {
  devices::Mica2Mote* mote = add_mote("m1");
  net::LinkModel slow = net::LinkModel::perfect();
  slow.latency_mean_s = 0.050;
  (void)network.set_link("m1", slow);
  bool failed = false;
  comm.mote().read_attr("m1", "temp", [&](util::Result<Value> v) {
    failed = v.status().code() == util::StatusCode::kUnavailable;
  });
  // Power the mote off while the read request is still in flight: the
  // network bounces it at delivery time instead of letting the RPC sit
  // until its full timeout.
  loop.schedule(Duration::millis(10), [&]() { mote->set_online(false); });
  loop.run_all();
  EXPECT_TRUE(failed);
  EXPECT_LT(clock.now().to_seconds(), 0.5);  // well under the RPC timeout
}

TEST_F(CommFixture, ReadAttrDecodesTypedValues) {
  add_mote("m1", 23.5);
  bool done = false;
  comm.mote().read_attr("m1", "temp", [&](util::Result<Value> v) {
    done = true;
    ASSERT_TRUE(v.is_ok());
    EXPECT_TRUE(device::value_equal(v.value(), Value{23.5}));
  });
  loop.run_all();
  EXPECT_TRUE(done);
}

TEST_F(CommFixture, ReadAttrSurfacesDeviceErrors) {
  add_mote("m1");
  bool failed = false;
  comm.mote().read_attr("m1", "flux_capacitance", [&](util::Result<Value> v) {
    failed = !v.is_ok();
  });
  loop.run_all();
  EXPECT_TRUE(failed);
}

// ------------------------------------------------------------------ scans

// Section 3.2's scan over a virtual device table runs through the shared
// acquisition plane; these pin the per-scan contract on a one-shot
// acquisition. Subscription fan-out, unreachable devices and empty tables
// are covered in scan_broker_test.cc.

TEST_F(CommFixture, ScanProducesOneTuplePerDevice) {
  add_mote("m1", 20.0);
  add_mote("m2", 30.0);
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::vector<comm::Tuple> tuples;
  broker.acquire_once("sensor", {}, [&](std::vector<comm::Tuple> out) {
    tuples = std::move(out);
  });
  loop.run_all();

  ASSERT_EQ(tuples.size(), 2u);
  for (const auto& tuple : tuples) {
    // Non-sensory attributes filled from the cache...
    EXPECT_TRUE(device::value_equal(tuple.get("loc"),
                                    Value{device::Location{1, 2, 3}}));
    // ...sensory attributes acquired live.
    double temp = 0;
    ASSERT_TRUE(device::value_as_double(tuple.get("temp"), &temp));
    EXPECT_TRUE(temp == 20.0 || temp == 30.0);
  }
  EXPECT_EQ(broker.stats().at("sensor").tuples_delivered, 2u);
  EXPECT_GT(broker.stats().at("sensor").rpcs_issued, 0u);
}

TEST_F(CommFixture, ProjectionPushdownFetchesOnlyNeededAttrs) {
  add_mote("m1");
  comm::ScanBroker broker(&registry, &comm, &loop);

  std::vector<comm::Tuple> tuples;
  broker.acquire_once("sensor", {"temp", "loc"},
                      [&](std::vector<comm::Tuple> out) {
                        tuples = std::move(out);
                      });
  loop.run_all();

  ASSERT_EQ(tuples.size(), 1u);
  // Needed sensory attr acquired; unneeded sensory attrs left NULL.
  EXPECT_FALSE(std::holds_alternative<std::monostate>(tuples[0].get("temp")));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(tuples[0].get("accel_x")));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(tuples[0].get("light")));
  // Exactly one sensory read: only temp is needed and sensory (loc is
  // non-sensory, cache-only).
  EXPECT_EQ(broker.stats().at("sensor").rpcs_issued, 1u);
}

}  // namespace
}  // namespace aorta
