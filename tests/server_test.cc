// Tests for the multi-tenant query service layer (src/server): sessions
// and mailboxes, admission control (bounded queue, policies, quotas,
// weighted-fair dequeue), result/row delivery, namespace isolation, and
// the drop-AQ-mid-epoch executor regression the service depends on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aorta.h"
#include "server/admission.h"
#include "server/service.h"
#include "server/session.h"
#include "server/workload_gen.h"
#include "util/bounded_queue.h"

namespace aorta {
namespace {

using server::AdmissionConfig;
using server::AdmissionController;
using server::Delivery;
using server::QueryService;
using server::ServiceConfig;
using server::Session;
using server::SessionId;
using server::SessionState;
using server::Submission;
using util::Duration;
using util::OverflowPolicy;
using util::TimePoint;

std::unique_ptr<core::Aorta> make_world() {
  auto sys = std::make_unique<core::Aorta>(core::Config{});
  (void)sys->add_mote("m1", {0, 0, 1});
  (void)sys->add_mote("m2", {3, 0, 1});
  (void)sys->mote("m1")->set_signal("temp", devices::constant_signal(25.0));
  (void)sys->mote("m2")->set_signal("temp", devices::constant_signal(19.0));
  return sys;
}

// ------------------------------------------------------- bounded queue

TEST(BoundedQueueTest, RejectNewKeepsOldItems) {
  util::BoundedQueue<int> q(2, OverflowPolicy::kRejectNew);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, ShedOldestAdmitsNewAndCounts) {
  util::BoundedQueue<int> q(2, OverflowPolicy::kShedOldest);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));  // sheds 1
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueueTest, ZeroCapacityKeepsNothing) {
  util::BoundedQueue<int> shed(0, OverflowPolicy::kShedOldest);
  EXPECT_FALSE(shed.push(7));  // the new item is the oldest: shed at once
  EXPECT_FALSE(shed.push(8));
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(shed.front(), nullptr);
  EXPECT_EQ(shed.shed(), 2u);
  EXPECT_EQ(shed.rejected(), 0u);
  EXPECT_FALSE(shed.pop().has_value());

  util::BoundedQueue<int> reject(0, OverflowPolicy::kRejectNew);
  EXPECT_FALSE(reject.push(7));
  EXPECT_FALSE(reject.push(8));
  EXPECT_TRUE(reject.empty());
  EXPECT_EQ(reject.rejected(), 2u);
  EXPECT_EQ(reject.shed(), 0u);
  EXPECT_EQ(reject.dropped(), 2u);
}

// ------------------------------------------------------------ sessions

TEST(SessionTest, MailboxShedsOldestAndAccounts) {
  Session s(7, "acme", 2);
  EXPECT_EQ(s.name_prefix(), "s7/");
  for (int i = 0; i < 3; ++i) {
    Delivery d;
    d.kind = Delivery::Kind::kResult;
    d.statement_id = static_cast<std::uint64_t>(i + 1);
    s.deliver(std::move(d));
  }
  EXPECT_EQ(s.mailbox_size(), 2u);
  EXPECT_EQ(s.mailbox_dropped(), 1u);
  std::vector<Delivery> mail = s.drain();
  ASSERT_EQ(mail.size(), 2u);
  EXPECT_EQ(mail[0].statement_id, 2u);  // oldest surviving first
  EXPECT_EQ(mail[1].statement_id, 3u);
  EXPECT_EQ(s.mailbox_size(), 0u);
  EXPECT_EQ(s.stats().completed, 3u);
}

TEST(SessionTest, NotifyObservesEveryDelivery) {
  Session s(1, "acme", 8);
  int seen = 0;
  s.set_notify([&](const Delivery&) { ++seen; });
  s.deliver(Delivery{});
  s.deliver(Delivery{});
  EXPECT_EQ(seen, 2);
}

// ----------------------------------------------------------- admission

Submission make_submission(const std::string& tenant, std::uint64_t seq,
                           query::Statement::Kind kind =
                               query::Statement::Kind::kSelect) {
  Submission s;
  s.tenant = tenant;
  s.seq = seq;
  s.kind = kind;
  return s;
}

TEST(AdmissionTest, WeightedFairDequeueHonorsWeights) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 64;
  AdmissionController ctl(cfg);
  ctl.set_tenant_weight("heavy", 3.0);
  std::uint64_t seq = 1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ctl.submit(make_submission("heavy", seq++)));
    ASSERT_TRUE(ctl.submit(make_submission("light", seq++)));
  }
  int heavy = 0, light = 0;
  for (int i = 0; i < 8; ++i) {
    auto next = ctl.next();
    ASSERT_TRUE(next.has_value());
    (next->tenant == "heavy" ? heavy : light)++;
  }
  // Stride scheduling: a weight-3 tenant gets ~3x the dispatches.
  EXPECT_GE(heavy, 5);
  EXPECT_GE(light, 1);
  EXPECT_EQ(heavy + light, 8);
}

TEST(AdmissionTest, FifoModeDispatchesInArrivalOrder) {
  AdmissionConfig cfg;
  cfg.fair_dequeue = false;
  AdmissionController ctl(cfg);
  ASSERT_TRUE(ctl.submit(make_submission("b", 1)));
  ASSERT_TRUE(ctl.submit(make_submission("a", 2)));
  ASSERT_TRUE(ctl.submit(make_submission("b", 3)));
  EXPECT_EQ(ctl.next()->seq, 1u);
  EXPECT_EQ(ctl.next()->seq, 2u);
  EXPECT_EQ(ctl.next()->seq, 3u);
}

TEST(AdmissionTest, ShedOldestTargetsMostBackloggedTenant) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 4;
  cfg.policy = OverflowPolicy::kShedOldest;
  AdmissionController ctl(cfg);
  ASSERT_TRUE(ctl.submit(make_submission("flood", 1)));
  ASSERT_TRUE(ctl.submit(make_submission("flood", 2)));
  ASSERT_TRUE(ctl.submit(make_submission("flood", 3)));
  ASSERT_TRUE(ctl.submit(make_submission("light", 4)));
  std::vector<std::string> shed_tenants;
  ASSERT_TRUE(ctl.submit(make_submission("light", 5),
                         [&](const Submission& s) {
                           shed_tenants.push_back(s.tenant);
                         }));
  // The flooding tenant loses its own oldest; the light tenant keeps both.
  ASSERT_EQ(shed_tenants.size(), 1u);
  EXPECT_EQ(shed_tenants[0], "flood");
  EXPECT_EQ(ctl.queued_for("flood"), 2u);
  EXPECT_EQ(ctl.queued_for("light"), 2u);
  EXPECT_EQ(ctl.stats().shed, 1u);
}

TEST(AdmissionTest, RejectNewRefusesWhenFull) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 1;
  AdmissionController ctl(cfg);
  EXPECT_TRUE(ctl.submit(make_submission("a", 1)));
  EXPECT_FALSE(ctl.submit(make_submission("a", 2)));
  EXPECT_EQ(ctl.stats().rejected, 1u);
}

TEST(AdmissionTest, IneligibleHeadIsSkippedWithoutLosingItsPlace) {
  AdmissionController ctl(AdmissionConfig{});
  ASSERT_TRUE(ctl.submit(make_submission("busy", 1)));
  ASSERT_TRUE(ctl.submit(make_submission("idle", 2)));
  auto only_idle = [](const Submission& s) { return s.tenant != "busy"; };
  auto next = ctl.next(only_idle);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->tenant, "idle");
  EXPECT_FALSE(ctl.next(only_idle).has_value());
  // Once eligible again, the deferred submission is still there.
  EXPECT_EQ(ctl.next()->tenant, "busy");
}

// ------------------------------------------------------------- service

TEST(QueryServiceTest, SelectRoundTripDeliversRows) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  auto submitted = service.submit(id, "SELECT s.temp FROM sensor s");
  ASSERT_TRUE(submitted.is_ok()) << submitted.status().to_string();
  sys.run_for(Duration::seconds(5));
  Session* s = service.session(id);
  ASSERT_NE(s, nullptr);
  std::vector<Delivery> mail = s->drain();
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].kind, Delivery::Kind::kResult);
  EXPECT_EQ(mail[0].statement_id, submitted.value());
  EXPECT_EQ(mail[0].rows.size(), 2u);  // two motes
  EXPECT_EQ(service.tenant_stats().at("acme").completed, 1u);
}

TEST(QueryServiceTest, ParseErrorsCarryStatementFragment) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  auto bad = service.submit(id, "SELECT s.temp FROM WHERE");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("at offset"), std::string::npos)
      << bad.status().message();
  EXPECT_EQ(service.tenant_stats().at("acme").errors, 1u);
}

TEST(QueryServiceTest, LifecycleGatesSubmission) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  EXPECT_FALSE(service.submit(9999, "SELECT s.temp FROM sensor s").is_ok());
  ASSERT_TRUE(service.drain_session(id).is_ok());
  EXPECT_FALSE(service.submit(id, "SELECT s.temp FROM sensor s").is_ok());
  ASSERT_TRUE(service.disconnect(id).is_ok());
  EXPECT_FALSE(service.drain_session(id).is_ok());
  EXPECT_EQ(service.active_sessions(), 0u);
}

TEST(QueryServiceTest, RejectNewSurfacesBusyAtSubmit) {
  auto world = make_world();
  core::Aorta& sys = *world;
  ServiceConfig cfg;
  cfg.admission.queue_capacity = 1;  // default kRejectNew
  QueryService service(&sys, cfg);
  SessionId id = service.connect("acme");
  ASSERT_TRUE(service.submit(id, "SELECT s.temp FROM sensor s").is_ok());
  auto second = service.submit(id, "SELECT s.temp FROM sensor s");
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kBusy);
  EXPECT_EQ(service.session(id)->stats().rejected, 1u);
}

TEST(QueryServiceTest, ShedOldestDeliversErrorToVictim) {
  auto world = make_world();
  core::Aorta& sys = *world;
  ServiceConfig cfg;
  cfg.admission.queue_capacity = 1;
  cfg.admission.policy = OverflowPolicy::kShedOldest;
  QueryService service(&sys, cfg);
  SessionId id = service.connect("acme");
  auto first = service.submit(id, "SELECT s.temp FROM sensor s");
  auto second = service.submit(id, "SELECT s.temp FROM sensor s");
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  std::vector<Delivery> mail = service.session(id)->drain();
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].kind, Delivery::Kind::kError);
  EXPECT_EQ(mail[0].statement_id, first.value());
  EXPECT_NE(mail[0].message.find("shed"), std::string::npos);
  EXPECT_EQ(service.tenant_stats().at("acme").shed, 1u);
}

TEST(QueryServiceTest, AqQuotaCountsQueuedAndRegistered) {
  auto world = make_world();
  core::Aorta& sys = *world;
  ServiceConfig cfg;
  cfg.admission.max_aqs_per_tenant = 1;
  QueryService service(&sys, cfg);
  SessionId id = service.connect("acme");
  ASSERT_TRUE(service
                  .submit(id, "CREATE AQ one AS SELECT s.temp FROM sensor s "
                              "WHERE s.temp > 100")
                  .is_ok());
  // Still queued, but the quota already counts it.
  auto over = service.submit(
      id, "CREATE AQ two AS SELECT s.temp FROM sensor s WHERE s.temp > 100");
  ASSERT_FALSE(over.is_ok());
  EXPECT_EQ(over.status().code(), util::StatusCode::kBusy);
  sys.run_for(Duration::seconds(2));
  // Registered now; quota still enforced.
  EXPECT_FALSE(
      service
          .submit(id,
                  "CREATE AQ three AS SELECT s.temp FROM sensor s "
                  "WHERE s.temp > 100")
          .is_ok());
  // Dropping frees the slot.
  ASSERT_TRUE(service.submit(id, "DROP AQ one").is_ok());
  sys.run_for(Duration::seconds(2));
  EXPECT_TRUE(
      service
          .submit(id, "CREATE AQ four AS SELECT s.temp FROM sensor s "
                      "WHERE s.temp > 100")
          .is_ok());
}

TEST(QueryServiceTest, SessionsGetIsolatedAqNamespaces) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId s1 = service.connect("acme");
  SessionId s2 = service.connect("globex");
  ASSERT_TRUE(service
                  .submit(s1, "CREATE AQ watch AS SELECT s.temp FROM sensor s "
                              "WHERE s.temp > 100")
                  .is_ok());
  sys.run_for(Duration::seconds(2));
  std::vector<std::string> names = sys.executor().aq_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "s1/watch");
  EXPECT_EQ(sys.executor().aq_owner("s1/watch"), "s1/");

  // Another session cannot drop it: its DROP resolves in its own namespace.
  ASSERT_TRUE(service.submit(s2, "DROP AQ watch").is_ok());
  sys.run_for(Duration::seconds(2));
  EXPECT_EQ(sys.executor().aq_names().size(), 1u);
  std::vector<Delivery> mail = service.session(s2)->drain();
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].kind, Delivery::Kind::kError);
}

TEST(QueryServiceTest, DisconnectDropsOwnedAqs) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  ASSERT_TRUE(service
                  .submit(id, "CREATE AQ watch AS SELECT s.temp FROM sensor s "
                              "WHERE s.temp > 100")
                  .is_ok());
  sys.run_for(Duration::seconds(2));
  ASSERT_EQ(sys.executor().aq_names().size(), 1u);
  ASSERT_TRUE(service.disconnect(id).is_ok());
  EXPECT_TRUE(sys.executor().aq_names().empty());
  sys.run_for(Duration::seconds(2));  // no dangling evaluation
}

TEST(QueryServiceTest, ContinuousRowsReachTheOwningMailbox) {
  core::Aorta sys(core::Config{});
  (void)sys.add_mote("door", {0, 0, 1});
  auto accel = std::make_unique<devices::ScriptedSignal>(0.0);
  accel->add_spike(TimePoint() + Duration::seconds(3), Duration::seconds(1),
                   800.0);
  (void)sys.mote("door")->set_signal("accel_x", std::move(accel));

  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  ASSERT_TRUE(service
                  .submit(id, "CREATE AQ push AS SELECT s.accel_x FROM "
                              "sensor s WHERE s.accel_x > 500")
                  .is_ok());
  sys.run_for(Duration::seconds(8));
  std::vector<Delivery> mail = service.session(id)->drain();
  bool saw_row = false;
  for (const Delivery& d : mail) {
    if (d.kind != Delivery::Kind::kRow) continue;
    saw_row = true;
    EXPECT_EQ(d.query, "s1/push");
    ASSERT_EQ(d.rows.size(), 1u);
  }
  EXPECT_TRUE(saw_row);
  EXPECT_GE(service.tenant_stats().at("acme").rows_delivered, 1u);
}

TEST(QueryServiceTest, ZeroCapacityMailboxesCountEveryRowDropped) {
  // A level-triggered AQ per session fires every epoch; with no mailbox
  // room each delivery (the CREATE's result, then every row) is shed on
  // arrival, counted, and nothing is buffered or observed.
  auto world = make_world();
  core::Aorta& sys = *world;
  ServiceConfig cfg;
  cfg.mailbox_capacity = 0;
  QueryService service(&sys, cfg);
  std::vector<SessionId> ids = {service.connect("acme"),
                                service.connect("zeta")};
  int observed = 0;
  for (SessionId id : ids) {
    service.session(id)->set_notify([&](const Delivery&) { ++observed; });
    ASSERT_TRUE(
        service.submit(id, "CREATE AQ all AS SELECT s.temp FROM sensor s")
            .is_ok());
  }
  sys.run_for(Duration::seconds(6));
  for (SessionId id : ids) {
    const Session& s = *service.session(id);
    EXPECT_EQ(s.mailbox_size(), 0u);
    EXPECT_GT(s.stats().rows, 0u);
    EXPECT_EQ(s.mailbox_dropped(), s.stats().completed + s.stats().rows);
  }
  EXPECT_EQ(observed, 0);
}

TEST(QueryServiceTest, StatsJsonIsWellFormedAndCovered) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  SessionId id = service.connect("acme");
  ASSERT_TRUE(service.submit(id, "SELECT s.temp FROM sensor s").is_ok());
  sys.run_for(Duration::seconds(3));
  std::string json = service.stats_json();
  for (const char* key :
       {"\"sessions\"", "\"admission\"", "\"tenants\"", "\"acme\"",
        "\"admission_latency_ms\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// --------------------------------------- drop AQ mid-epoch (regression)

// Dropping an AQ and immediately re-registering the same name while its
// epoch scan is in flight must not feed the old scan's tuples to the new
// query (generation check in ContinuousQueryExecutor::evaluate).
TEST(ExecutorRegressionTest, DropAndReregisterMidEpochDiscardsStaleScan) {
  core::Aorta sys(core::Config{});
  (void)sys.add_mote("m1", {0, 0, 1});
  (void)sys.mote("m1")->set_signal("accel_x", devices::constant_signal(600.0));

  ASSERT_TRUE(sys.exec("CREATE AQ q AS SELECT s.accel_x FROM sensor s "
                       "WHERE s.accel_x > 500")
                  .is_ok());
  sys.run_for(Duration::seconds(2.5));
  ASSERT_NE(sys.query_stats("q"), nullptr);
  ASSERT_GE(sys.query_stats("q")->epochs, 1u);

  // Epoch ticks land on whole seconds; the mote's scan reply is still in
  // flight ~0.5 ms after the tick. Swap the registration inside that
  // window: same name, impossible predicate.
  sys.loop().schedule(Duration::seconds(0.5005), [&]() {
    ASSERT_TRUE(sys.exec("DROP AQ q").is_ok());
    ASSERT_TRUE(sys.exec("CREATE AQ q AS SELECT s.accel_x FROM sensor s "
                         "WHERE s.accel_x > 100000")
                    .is_ok());
  });
  sys.run_for(Duration::seconds(4));

  // The stale scan must not have produced events or rows under the new
  // registration, and the new query must be ticking normally.
  const query::QueryStats* stats = sys.query_stats("q");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events, 0u);
  EXPECT_GE(stats->epochs, 2u);
  EXPECT_TRUE(sys.executor().recent_results("q").empty());
}

// ------------------------------------------------------- workload gen

TEST(WorkloadGenTest, ClosedLoopClientsKeepSubmitting) {
  auto world = make_world();
  core::Aorta& sys = *world;
  QueryService service(&sys, ServiceConfig{});
  server::WorkloadConfig wc;
  wc.tenants = 2;
  wc.sessions_per_tenant = 3;
  wc.think = Duration::seconds(0.5);
  wc.aq_fraction = 0.0;
  wc.seed = 5;
  server::WorkloadGen gen(&service, &sys, wc);
  gen.start();
  EXPECT_EQ(service.active_sessions(), 6u);
  sys.run_for(Duration::seconds(10));
  gen.stop();
  EXPECT_GT(gen.stats().submitted, 6u);
  // Every submission resolves eventually in closed loop.
  std::uint64_t completed = 0;
  for (const auto& [tenant, ts] : service.tenant_stats()) {
    completed += ts.completed;
  }
  EXPECT_GT(completed, 0u);
}

}  // namespace
}  // namespace aorta
