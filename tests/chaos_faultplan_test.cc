// Scripted fault plans: XML parsing/validation, round-tripping, and the
// deterministic execution of crash/revive, partition/heal and loss/glitch
// spikes through Aorta::apply_fault_plan.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/aorta.h"
#include "devices/mote.h"
#include "shard/plane.h"
#include "util/fault_plan.h"

namespace aorta {
namespace {

using util::Duration;
using util::FaultEvent;
using util::FaultPlan;

TEST(FaultPlanTest, ParsesAllKindsAndSortsByTime) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"40\" kind=\"revive\" device=\"m1\"/>"
      "<event at=\"10\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"15\" kind=\"partition\" device=\"m2\"/>"
      "<event at=\"25\" kind=\"heal\" device=\"m2\"/>"
      "<event at=\"50\" kind=\"loss\" device=\"m2\" prob=\"0.9\" for=\"10\"/>"
      "<event at=\"60\" kind=\"glitch\" device=\"c1\" prob=\"0.5\" for=\"5\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 6u);
  // Sorted by at_s regardless of document order.
  EXPECT_EQ(ev[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_DOUBLE_EQ(ev[0].at_s, 10.0);
  EXPECT_EQ(ev[0].target, "m1");
  EXPECT_EQ(ev[1].kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(ev[2].kind, FaultEvent::Kind::kHeal);
  EXPECT_EQ(ev[3].kind, FaultEvent::Kind::kRevive);
  EXPECT_EQ(ev[4].kind, FaultEvent::Kind::kLossSpike);
  EXPECT_DOUBLE_EQ(ev[4].prob, 0.9);
  EXPECT_DOUBLE_EQ(ev[4].for_s, 10.0);
  EXPECT_EQ(ev[5].kind, FaultEvent::Kind::kGlitchSpike);
}

TEST(FaultPlanTest, ShardTargetedEventsParseAndRoundTrip) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"10\" kind=\"crash\" shard=\"1\"/>"
      "<event at=\"20\" kind=\"revive\" shard=\"1\"/>"
      "<event at=\"30\" kind=\"partition\" shard=\"0\"/>"
      "<event at=\"40\" kind=\"heal\" shard=\"0\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].shard, 1);
  EXPECT_TRUE(ev[0].target.empty());
  EXPECT_EQ(ev[2].shard, 0);

  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(again.value().events[i].shard, ev[i].shard);
    EXPECT_EQ(again.value().events[i].kind, ev[i].kind);
  }
}

TEST(FaultPlanTest, RejectsMalformedShardEvents) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  // Exactly one of device/shard; spikes are link/device-level only.
  bad("<event at=\"1\" kind=\"crash\" device=\"m1\" shard=\"0\"/>");
  bad("<event at=\"1\" kind=\"loss\" shard=\"0\" prob=\"0.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"glitch\" shard=\"0\" prob=\"0.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"crash\" shard=\"-2\"/>");
  bad("<event at=\"1\" kind=\"crash\" shard=\"x\"/>");
}

TEST(FaultPlanTest, BackplaneVerbsParseAndRoundTrip) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"5\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
      " for=\"10\"/>"
      "<event at=\"6\" kind=\"reorder\" device=\"shard-0\" prob=\"0.3\""
      " window=\"0.004\" for=\"10\"/>"
      "<event at=\"7\" kind=\"delay\" device=\"shard-1\" add=\"0.002\""
      " for=\"10\"/>"
      "<event at=\"8\" kind=\"reorder\" shard=\"1\" prob=\"0.2\""
      " window=\"0.01\" for=\"2\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, FaultEvent::Kind::kDuplicateSpike);
  EXPECT_DOUBLE_EQ(ev[0].factor, 1.5);
  EXPECT_EQ(ev[1].kind, FaultEvent::Kind::kReorderSpike);
  EXPECT_DOUBLE_EQ(ev[1].prob, 0.3);
  EXPECT_DOUBLE_EQ(ev[1].window_s, 0.004);
  EXPECT_EQ(ev[2].kind, FaultEvent::Kind::kDelaySpike);
  EXPECT_DOUBLE_EQ(ev[2].add_s, 0.002);
  EXPECT_EQ(ev[3].shard, 1);  // backplane verbs may target a shard

  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), 4u);
  EXPECT_DOUBLE_EQ(again.value().events[0].factor, 1.5);
  EXPECT_DOUBLE_EQ(again.value().events[1].window_s, 0.004);
  EXPECT_DOUBLE_EQ(again.value().events[2].add_s, 0.002);
  EXPECT_EQ(again.value().events[3].shard, 1);
}

TEST(FaultPlanTest, RejectsMalformedBackplaneVerbs) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  // duplicate: factor must be >= 1 and present.
  bad("<event at=\"1\" kind=\"duplicate\" device=\"czar\" factor=\"0.5\""
      " for=\"2\"/>");
  bad("<event at=\"1\" kind=\"duplicate\" device=\"czar\" for=\"2\"/>");
  // reorder: window must be > 0; prob bounded like loss.
  bad("<event at=\"1\" kind=\"reorder\" device=\"czar\" prob=\"0.3\""
      " window=\"0\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"reorder\" device=\"czar\" prob=\"1.5\""
      " window=\"0.01\" for=\"2\"/>");
  // delay: negative add rejected.
  bad("<event at=\"1\" kind=\"delay\" device=\"czar\" add=\"-0.001\""
      " for=\"2\"/>");
  // All spikes need a positive duration.
  bad("<event at=\"1\" kind=\"delay\" device=\"czar\" add=\"0.001\"/>");
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  bad("<event at=\"1\" kind=\"meteor\" device=\"m1\"/>");      // unknown kind
  bad("<event at=\"1\" kind=\"crash\"/>");                     // no device
  bad("<event at=\"-1\" kind=\"crash\" device=\"m1\"/>");      // negative at
  bad("<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"1.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"0.5\"/>");  // no for
  bad("<event at=\"x\" kind=\"crash\" device=\"m1\"/>");       // non-numeric
  EXPECT_FALSE(FaultPlan::from_xml("<wrong_root/>").is_ok());
}

TEST(FaultPlanTest, RoundTripsThroughXml) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"10\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"50\" kind=\"loss\" device=\"m2\" prob=\"0.25\" for=\"10\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok());
  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), plan.value().events.size());
  for (std::size_t i = 0; i < again.value().events.size(); ++i) {
    EXPECT_EQ(again.value().events[i].kind, plan.value().events[i].kind);
    EXPECT_EQ(again.value().events[i].target, plan.value().events[i].target);
    EXPECT_DOUBLE_EQ(again.value().events[i].at_s,
                     plan.value().events[i].at_s);
    EXPECT_DOUBLE_EQ(again.value().events[i].prob,
                     plan.value().events[i].prob);
  }
}

// ---------------------------------------------------------- apply + run

struct FaultPlanSystemFixture : public ::testing::Test {
  FaultPlanSystemFixture() {
    core::Config cfg;
    cfg.seed = 4;
    sys = std::make_unique<core::Aorta>(cfg);
    EXPECT_TRUE(sys->add_mote("m1", {1, 0, 1}).is_ok());
    sys->mote("m1")->reliability().glitch_prob = 0.0;
  }

  FaultPlan parse(const std::string& xml) {
    auto plan = FaultPlan::from_xml(xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    return plan.is_ok() ? std::move(plan).value() : FaultPlan{};
  }

  std::unique_ptr<core::Aorta> sys;
};

TEST_F(FaultPlanSystemFixture, ApplyValidatesTargetsUpFront) {
  FaultPlan plan = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" device=\"ghost\"/>"
      "</fault_plan>");
  util::Status s = sys->apply_fault_plan(plan);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);

  FaultPlan plan2 = parse(
      "<fault_plan><event at=\"1\" kind=\"partition\" device=\"nowhere\"/>"
      "</fault_plan>");
  EXPECT_FALSE(sys->apply_fault_plan(plan2).is_ok());

  // Backplane verbs validate their endpoint up front too.
  FaultPlan plan3 = parse(
      "<fault_plan><event at=\"1\" kind=\"duplicate\" device=\"ghost\""
      " factor=\"2\" for=\"1\"/></fault_plan>");
  util::Status s3 = sys->apply_fault_plan(plan3);
  EXPECT_FALSE(s3.is_ok());
  EXPECT_EQ(s3.code(), util::StatusCode::kNotFound);
}

TEST_F(FaultPlanSystemFixture, CrashAndReviveToggleTheDevice) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"2\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"5\" kind=\"revive\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  EXPECT_TRUE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(3));
  EXPECT_FALSE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(3));
  EXPECT_TRUE(sys->mote("m1")->online());
}

TEST_F(FaultPlanSystemFixture, PartitionAndHealDriveTheLink) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"partition\" device=\"m1\"/>"
      "<event at=\"4\" kind=\"heal\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_TRUE(sys->network().is_partitioned("m1"));
  sys->run_for(Duration::seconds(3));
  EXPECT_FALSE(sys->network().is_partitioned("m1"));
}

TEST_F(FaultPlanSystemFixture, LossSpikeRestoresTheOriginalLink) {
  // Loss spikes ride the chaos field (drawn from the network's isolated
  // chaos RNG stream), leaving the link's base loss_prob untouched so the
  // main RNG stream never shifts.
  const net::LinkModel* before = sys->network().link("m1");
  ASSERT_NE(before, nullptr);
  const double base_loss = before->loss_prob;
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"0.99\" for=\"3\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->chaos_loss_prob, 0.99);
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->loss_prob, base_loss);
  sys->run_for(Duration::seconds(3));
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->chaos_loss_prob, 0.0);
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->loss_prob, base_loss);
}

TEST_F(FaultPlanSystemFixture, BackplaneVerbsSpikeAndRestoreChaosFields) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"duplicate\" device=\"m1\" factor=\"1.5\""
      " for=\"3\"/>"
      "<event at=\"1\" kind=\"reorder\" device=\"m1\" prob=\"0.3\""
      " window=\"0.004\" for=\"3\"/>"
      "<event at=\"1\" kind=\"delay\" device=\"m1\" add=\"0.002\" for=\"3\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  const net::LinkModel* spiked = sys->network().link("m1");
  ASSERT_NE(spiked, nullptr);
  EXPECT_DOUBLE_EQ(spiked->chaos_dup_factor, 1.5);
  EXPECT_DOUBLE_EQ(spiked->chaos_reorder_prob, 0.3);
  EXPECT_DOUBLE_EQ(spiked->chaos_reorder_window_s, 0.004);
  EXPECT_DOUBLE_EQ(spiked->chaos_delay_s, 0.002);
  sys->run_for(Duration::seconds(3));
  const net::LinkModel* restored = sys->network().link("m1");
  EXPECT_DOUBLE_EQ(restored->chaos_dup_factor, 1.0);
  EXPECT_DOUBLE_EQ(restored->chaos_reorder_prob, 0.0);
  EXPECT_DOUBLE_EQ(restored->chaos_delay_s, 0.0);
  EXPECT_FALSE(restored->has_chaos());
}

TEST_F(FaultPlanSystemFixture, GlitchSpikeRestoresDeviceReliability) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"glitch\" device=\"m1\" prob=\"0.8\" for=\"2\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->mote("m1")->reliability().glitch_prob, 0.8);
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->mote("m1")->reliability().glitch_prob, 0.0);
}

TEST_F(FaultPlanSystemFixture, UnshardedSystemRejectsShardEvents) {
  FaultPlan plan = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" shard=\"0\"/>"
      "</fault_plan>");
  util::Status s = sys->apply_fault_plan(plan);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("no sharded plane"), std::string::npos);
}

// A shard-targeted crash/revive pair through Plane::apply_fault_plan
// takes one worker off the network and brings it back; the czar's
// supervision marks the shard down in between (the bench_chaos scenario).
TEST(FaultPlanShardTest, ShardCrashIsRewrittenToWorkerPartition) {
  core::Config cfg;
  cfg.seed = 4;
  core::Aorta sys(cfg);
  shard::Plane plane(&sys, shard::Plane::Options{.num_shards = 2});
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(plane.add_mote(id, {double(i), 0, 1}).is_ok());
  }

  auto parsed = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"2\" kind=\"crash\" shard=\"0\"/>"
      "<event at=\"10\" kind=\"revive\" shard=\"0\"/>"
      "</fault_plan>");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  // Bounds are validated against the plane's own shard count.
  auto oob = FaultPlan::from_xml(
      "<fault_plan><event at=\"1\" kind=\"crash\" shard=\"7\"/>"
      "</fault_plan>");
  ASSERT_TRUE(oob.is_ok());
  EXPECT_FALSE(plane.apply_fault_plan(oob.value()).is_ok());

  ASSERT_TRUE(plane.apply_fault_plan(parsed.value()).is_ok());
  sys.run_for(Duration::seconds(1));
  EXPECT_FALSE(sys.network().is_partitioned("shard-0"));
  sys.run_for(Duration::seconds(5));  // crash fired, heartbeats silent
  EXPECT_TRUE(sys.network().is_partitioned("shard-0"));
  EXPECT_FALSE(plane.czar().worker_live(0));
  EXPECT_TRUE(plane.czar().worker_live(1));
  sys.run_for(Duration::seconds(6));  // revive fired, first heartbeat back
  EXPECT_FALSE(sys.network().is_partitioned("shard-0"));
  EXPECT_TRUE(plane.czar().worker_live(0));
}

// Every event is scheduled on the loop that owns its target: a worker's
// device or endpoint on that worker's loop, a host device or the czar's
// endpoint on the control loop. Validation is shared by the plane and the
// host, and a plan with one bad event schedules nothing on any loop.
TEST(FaultPlanShardTest, EventsFireOnTheirTargetsHomeLoop) {
  core::Config cfg;
  cfg.seed = 4;
  core::Aorta sys(cfg);
  shard::Plane plane(&sys, shard::Plane::Options{.num_shards = 2});
  // One mote on each shard (the FNV-1a partition is fixed) and one on the
  // host slice.
  std::string on_shard[2];
  for (int i = 0; on_shard[0].empty() || on_shard[1].empty(); ++i) {
    std::string id = "m" + std::to_string(i);
    std::string& slot = on_shard[plane.shard_of_device(id)];
    if (slot.empty()) slot = id;
  }
  for (const std::string& id : on_shard) {
    ASSERT_TRUE(plane.add_mote(id, {0, 0, 1}).is_ok());
  }
  ASSERT_TRUE(sys.add_mote("h0", {1, 1, 1}).is_ok());

  auto parse = [](const std::string& events) {
    auto plan = FaultPlan::from_xml("<fault_plan>" + events + "</fault_plan>");
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    return plan.is_ok() ? std::move(plan).value() : FaultPlan{};
  };
  auto pending = [&sys]() {
    std::vector<std::size_t> out;
    for (int i = 0; i < sys.runtime().size(); ++i) {
      out.push_back(sys.runtime().loop(i)->pending());
    }
    return out;
  };
  auto crash = [](const std::string& device) {
    return "<event at=\"1\" kind=\"crash\" device=\"" + device + "\"/>";
  };

  const std::string unattached =
      "<event at=\"1\" kind=\"partition\" device=\"nowhere\"/>";
  for (const std::string& bad : {crash("ghost"), unattached}) {
    EXPECT_EQ(plane.apply_fault_plan(parse(bad)).code(),
              util::StatusCode::kNotFound)
        << bad;
    EXPECT_EQ(sys.apply_fault_plan(parse(bad)).code(),
              util::StatusCode::kNotFound)
        << bad;
  }
  const std::vector<std::size_t> before = pending();
  EXPECT_FALSE(plane.apply_fault_plan(parse(crash(on_shard[0]) +
                                            crash("ghost")))
                   .is_ok());
  EXPECT_EQ(pending(), before);

  const int host_loop = sys.engine().loop_index();
  const int loop0 = plane.worker(0).engine().loop_index();
  const int loop1 = plane.worker(1).engine().loop_index();
  const std::vector<std::pair<std::string, int>> events = {
      {crash(on_shard[0]), loop0},
      {crash(on_shard[1]), loop1},
      {crash("h0"), host_loop},
      {"<event at=\"2\" kind=\"partition\" device=\"shard-1\"/>", loop1},
      {"<event at=\"2\" kind=\"delay\" device=\"czar\" add=\"0.002\""
       " for=\"10\"/>",
       host_loop},
  };
  std::string xml;
  std::vector<std::size_t> expected = before;
  for (const auto& [event, home] : events) {
    xml += event;
    ++expected[static_cast<std::size_t>(home)];
  }
  ASSERT_TRUE(plane.apply_fault_plan(parse(xml)).is_ok());
  EXPECT_EQ(pending(), expected);

  net::Network& shard1_segment = plane.worker(1).engine().network();
  EXPECT_TRUE(plane.mote(on_shard[0])->online());
  sys.run_for(Duration::seconds(1.5));
  EXPECT_FALSE(plane.mote(on_shard[0])->online());
  EXPECT_FALSE(plane.mote(on_shard[1])->online());
  EXPECT_FALSE(sys.mote("h0")->online());
  EXPECT_FALSE(shard1_segment.is_partitioned("shard-1"));
  EXPECT_DOUBLE_EQ(sys.network().link("czar")->chaos_delay_s, 0.0);
  sys.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(shard1_segment.is_partitioned("shard-1"));
  EXPECT_DOUBLE_EQ(sys.network().link("czar")->chaos_delay_s, 0.002);
}

TEST_F(FaultPlanSystemFixture, PlansCompose) {
  FaultPlan a = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" device=\"m1\"/>"
      "</fault_plan>");
  FaultPlan b = parse(
      "<fault_plan><event at=\"2\" kind=\"revive\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(a).is_ok());
  ASSERT_TRUE(sys->apply_fault_plan(b).is_ok());
  sys->run_for(Duration::seconds(1.5));
  EXPECT_FALSE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(1));
  EXPECT_TRUE(sys->mote("m1")->online());
}

}  // namespace
}  // namespace aorta
