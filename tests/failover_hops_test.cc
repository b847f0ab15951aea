// Tests for action failover (retry on remaining candidates) and multi-hop
// cost-aware device selection, and the one-shot self-join over the same
// motes.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/aorta.h"

namespace aorta {
namespace {

using device::Value;
using util::Duration;
using util::TimePoint;

struct FailoverFixture : public ::testing::Test {
  void build(int max_retries) {
    core::Config config;
    config.seed = 13;
    config.max_retries = max_retries;
    sys = std::make_unique<core::Aorta>(config);
    // cam_bad is perfectly aimed at the target (cheapest) but always
    // fails; cam_good needs a big sweep but works.
    ASSERT_TRUE(
        sys->add_camera("cam_bad", "10.0.0.1", {{0, 0, 3}, 0.0}).is_ok());
    ASSERT_TRUE(
        sys->add_camera("cam_good", "10.0.0.2", {{0, 0, 3}, 150.0}).is_ok());
    sys->camera("cam_bad")->reliability().glitch_prob = 1.0;
    sys->camera("cam_bad")->set_fatigue_coeff(0.0);
    sys->camera("cam_good")->reliability().glitch_prob = 0.0;
    sys->camera("cam_good")->set_fatigue_coeff(0.0);

    ASSERT_TRUE(sys->add_mote("mote1", {5, 0, 1}).is_ok());
    sys->mote("mote1")->reliability().glitch_prob = 0.0;
    auto link = net::LinkModel::mote_radio();
    link.loss_prob = 0.0;
    ASSERT_TRUE(sys->network().set_link("mote1", link).is_ok());
    auto script = std::make_unique<devices::ScriptedSignal>(0.0);
    script->add_spike(TimePoint::from_micros(10'000'000), Duration::seconds(2),
                      900.0);
    (void)sys->mote("mote1")->set_signal("accel_x", std::move(script));

    ASSERT_TRUE(sys->exec("CREATE AQ q AS SELECT photo(c.ip, s.loc, 'd') "
                          "FROM sensor s, camera c "
                          "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)")
                    .is_ok());
  }

  std::unique_ptr<core::Aorta> sys;
};

TEST_F(FailoverFixture, FailedActionRetriesOnNextCandidate) {
  build(/*max_retries=*/1);
  sys->run_for(Duration::seconds(60));

  auto as = sys->action_stats("q");
  EXPECT_EQ(as.usable, 1u);
  EXPECT_EQ(as.failed, 0u);
  // The cheapest camera was tried first and failed; the retry landed on
  // the working one.
  EXPECT_EQ(sys->camera("cam_bad")->camera_stats().photos_failed, 1u);
  EXPECT_EQ(sys->camera("cam_good")->camera_stats().photos_ok, 1u);
  ASSERT_EQ(sys->executor().operators().size(), 1u);
  EXPECT_EQ(sys->executor().operators()[0]->stats().retries, 1u);
}

TEST_F(FailoverFixture, NoRetriesMeansFailureSticks) {
  build(/*max_retries=*/0);
  sys->run_for(Duration::seconds(60));

  auto as = sys->action_stats("q");
  EXPECT_EQ(as.usable, 0u);
  EXPECT_EQ(as.failed, 1u);
  EXPECT_EQ(sys->camera("cam_good")->camera_stats().photos_ok, 0u);
  EXPECT_EQ(sys->executor().operators()[0]->stats().retries, 0u);
}

TEST_F(FailoverFixture, RetriesExhaustWhenEverythingFails) {
  build(/*max_retries=*/3);
  sys->camera("cam_good")->reliability().glitch_prob = 1.0;  // both broken
  sys->run_for(Duration::seconds(60));

  auto as = sys->action_stats("q");
  EXPECT_EQ(as.usable, 0u);
  EXPECT_EQ(as.failed, 1u);  // reported once, after retries ran out
  // One retry happened (to the second camera); after that no candidates
  // remained, so the failure was final.
  EXPECT_EQ(sys->executor().operators()[0]->stats().retries, 1u);
}

// ------------------------------------------------- multi-hop device choice

TEST(MultiHopSelectionTest, DeviceSelectionPrefersShallowMotes) {
  core::Config config;
  config.seed = 19;
  core::Aorta sys(config);

  // The event mote, plus two actuator motes both within range: one 1 hop
  // deep, one 5 hops deep. beep()'s hop-aware cost model should route the
  // actuation to the shallow mote.
  ASSERT_TRUE(sys.add_mote("trigger", {0, 0, 1}).is_ok());
  ASSERT_TRUE(sys.add_mote("shallow", {1, 0, 1}, /*hops=*/1).is_ok());
  ASSERT_TRUE(sys.add_mote("deep", {0, 1, 1}, /*hops=*/5).is_ok());
  for (const char* id : {"trigger", "shallow", "deep"}) {
    sys.mote(id)->reliability().glitch_prob = 0.0;
    auto link = devices::Mica2Mote::link_for_hops(id == std::string("deep") ? 5 : 1);
    link.loss_prob = 0.0;
    ASSERT_TRUE(sys.network().set_link(id, link).is_ok());
  }
  auto script = std::make_unique<devices::ScriptedSignal>(0.0);
  script->add_spike(TimePoint::from_micros(10'000'000), Duration::seconds(2),
                    900.0);
  (void)sys.mote("trigger")->set_signal("accel_x", std::move(script));

  // Sound an alarm on some nearby mote when the trigger senses movement.
  ASSERT_TRUE(sys.exec("CREATE AQ alarm AS SELECT beep(m.id) "
                       "FROM sensor s, sensor m "
                       "WHERE s.id = 'trigger' AND s.accel_x > 500 "
                       "AND distance(m.loc, s.loc) < 3 AND m.id <> 'trigger'")
                  .is_ok());
  sys.run_for(Duration::seconds(60));

  EXPECT_EQ(sys.action_stats("alarm").usable, 1u);
  EXPECT_EQ(sys.mote("shallow")->beeps(), 1u);  // picked over the deep one
  EXPECT_EQ(sys.mote("deep")->beeps(), 0u);

  // The same self-join as a one-shot SELECT acquires the sensor table
  // twice in one run. With a sensory column both acquisitions are in
  // flight at once, each on its own tuple block; with static columns only
  // the first completes, and is kept, before the second takes the block
  // it gave back. Either way every ordered pair within range is joined,
  // in nested-loop order, and a repeated run returns the same rows.
  for (const char* sql :
       {"SELECT s.id, m.id, m.hops, m.accel_x FROM sensor s, sensor m "
        "WHERE distance(m.loc, s.loc) < 3 AND m.id <> s.id",
        "SELECT s.id, m.id, m.hops FROM sensor s, sensor m "
        "WHERE distance(m.loc, s.loc) < 3 AND m.id <> s.id"}) {
    for (int run = 0; run < 2; ++run) {
      auto joined = sys.exec(sql);
      ASSERT_TRUE(joined.is_ok()) << joined.status().message();
      std::vector<std::string> pairs;
      for (const query::Row& row : joined.value().rows) {
        ASSERT_GE(row.size(), 3u);
        pairs.push_back(device::value_to_string(row[0].second) + " " +
                        device::value_to_string(row[1].second) + " " +
                        device::value_to_string(row[2].second));
        if (row.size() == 4) {
          EXPECT_FALSE(std::holds_alternative<std::monostate>(row[3].second))
              << pairs.back();
        }
      }
      EXPECT_EQ(pairs, (std::vector<std::string>{
                           "'deep' 'shallow' 1", "'deep' 'trigger' 1",
                           "'shallow' 'deep' 5", "'shallow' 'trigger' 1",
                           "'trigger' 'deep' 5", "'trigger' 'shallow' 1"}))
          << sql << " run " << run;
    }
  }
}

}  // namespace
}  // namespace aorta
