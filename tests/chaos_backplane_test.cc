// Reliable backplane under chaos (DESIGN.md §14).
//
// The contract under test: with Config::reliable_backplane, a czar-link
// storm — loss, duplication, reordering, fixed delay — changes *when*
// backplane messages arrive but never *what* the client observes. The
// retry/ack/replay machinery (ReliableCall retries, idempotency-window
// dedup, replay buffers trimmed by cumulative acks, gap NACKs) must make a
// lossy run deliver byte-identical events to a lossless run of the same
// seed. The ablation flag keeps the same protocol with one attempt per RPC
// and zero replay retention, so a single dropped stream message stalls
// delivery and a lost RPC is given up at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/aorta.h"
#include "net/network.h"
#include "net/rpc.h"
#include "server/service.h"
#include "server/session.h"
#include "shard/czar.h"
#include "shard/fragment.h"
#include "shard/plane.h"
#include "util/fault_plan.h"

namespace aorta {
namespace {

using server::Delivery;
using server::QueryService;
using server::ServiceConfig;
using server::SessionId;
using shard::Plane;
using util::Duration;
using util::TimePoint;

std::string value_key(const device::Value& v) {
  char buf[96];
  if (std::holds_alternative<std::monostate>(v)) return "null";
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  if (const std::string* s = std::get_if<std::string>(&v)) return *s;
  const auto& loc = std::get<device::Location>(v);
  std::snprintf(buf, sizeof(buf), "(%.17g,%.17g,%.17g)", loc.x, loc.y, loc.z);
  return buf;
}

// Keyed by the row's *production* instant (Delivery::at carries the
// worker-side timestamp for kRow), so a lossy and a lossless run compare
// equal even though the lossy run released each row a little later.
std::string event_key(const Delivery& d) {
  std::string key = d.query;
  key += "@" + std::to_string(d.at.to_micros());
  for (const query::Row& row : d.rows) {
    for (const auto& [name, value] : row) {
      key += "|" + name + "=" + value_key(value);
    }
  }
  key += d.degraded ? "|degraded" : "";
  return key;
}

struct ChaosRun {
  std::vector<std::string> events;  // kRow keys in delivery order
  shard::CzarStats czar;
  net::ReliableCallStats reliable;
  // Summed over the workers.
  std::uint64_t replay_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t replay_hwm = 0;       // max, not sum
  std::size_t replay_depth_end = 0;
};

// A sharded workload with steady continuous-row traffic. Device links are
// the clean backplane model so every event-content difference between two
// runs can only come from the backplane protocol itself.
ChaosRun run_sharded(std::uint64_t seed, const std::string& fault_plan_xml,
                     double run_s, double cutoff_s, bool reliable) {
  core::Config config;
  config.seed = seed;
  config.reliable_backplane = reliable;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);

  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    EXPECT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    devices::Mica2Mote* mote = service.plane()->mote(id);
    mote->reliability().glitch_prob = 0.0;
    (void)mote->set_signal("temp", devices::constant_signal(15.0 + i));
    (void)mote->set_signal(
        "accel_x",
        devices::periodic_spike_signal(0.0, 900.0, Duration::seconds(3.0),
                                       Duration::seconds(1.0),
                                       Duration::seconds(0.25 * i)));
    (void)sys.network().set_link(id, shard::backplane_link());
  }

  SessionId id = service.connect("acme");
  for (int k = 0; k < 4; ++k) {
    std::string sql = "CREATE AQ temp" + std::to_string(k) +
                      " AS SELECT s.temp FROM sensor s WHERE s.temp > " +
                      std::to_string(12 + 2 * k);
    EXPECT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
  for (int k = 0; k < 2; ++k) {
    std::string sql = "CREATE AQ spike" + std::to_string(k) +
                      " AS SELECT s.accel_x, s.temp FROM sensor s "
                      "WHERE s.accel_x > " +
                      std::to_string(100 + 300 * k);
    EXPECT_TRUE(service.submit(id, sql).is_ok()) << sql;
  }
  if (!fault_plan_xml.empty()) {
    auto plan = util::FaultPlan::from_xml(fault_plan_xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    EXPECT_TRUE(service.plane()->apply_fault_plan(plan.value()).is_ok());
  }
  sys.run_for(Duration::seconds(run_s));

  ChaosRun out;
  const std::int64_t cutoff_us = static_cast<std::int64_t>(cutoff_s * 1e6);
  for (const Delivery& d : service.session(id)->drain()) {
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
    if (d.kind != Delivery::Kind::kRow) continue;
    // Only rows produced before the cutoff: both runs have converged on
    // those by the end of the run (the storm ends well before it).
    if (d.at.to_micros() > cutoff_us) continue;
    out.events.push_back(event_key(d));
  }
  out.czar = service.plane()->czar().stats();
  out.reliable = service.plane()->czar().reliable_stats();
  for (int i = 0; i < cfg.num_shards; ++i) {
    const shard::WorkerStats& w = service.plane()->worker(i).stats();
    out.replay_sent += w.replay_sent;
    out.acks_received += w.acks_received;
    out.replay_hwm = std::max(out.replay_hwm, w.replay_hwm);
    out.replay_depth_end += service.plane()->worker(i).replay_depth();
  }
  return out;
}

// The storm hits only the czar's link: czar<->worker traffic is pure
// backplane, while the worker links also carry device traffic whose
// content must stay out of scope.
constexpr const char* kCzarStorm =
    "<fault_plan>"
    "<event at=\"3\" kind=\"loss\" device=\"czar\" prob=\"0.1\" for=\"7\"/>"
    "<event at=\"3\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
    " for=\"7\"/>"
    "<event at=\"3\" kind=\"reorder\" device=\"czar\" prob=\"0.3\""
    " window=\"0.004\" for=\"7\"/>"
    "<event at=\"3\" kind=\"delay\" device=\"czar\" add=\"0.002\""
    " for=\"7\"/>"
    "</fault_plan>";

TEST(ChaosBackplaneTest, StormVsLosslessDeliversByteIdenticalEvents) {
  for (std::uint64_t seed : {42ull, 7ull}) {
    ChaosRun clean = run_sharded(seed, "", 16.0, 11.0, /*reliable=*/true);
    ChaosRun storm =
        run_sharded(seed, kCzarStorm, 16.0, 11.0, /*reliable=*/true);

    ASSERT_FALSE(clean.events.empty()) << "seed " << seed;
    // Exactly-once: no loss, no duplication, unchanged order — the lossy
    // run's delivered events are byte-identical to the lossless run's.
    EXPECT_EQ(clean.events, storm.events) << "seed " << seed;

    // The storm actually engaged the machinery (these are not vacuous
    // passes): duplicates were dropped, gaps were NACKed and replayed.
    EXPECT_GT(storm.czar.dup_msgs_dropped, 0u) << "seed " << seed;
    EXPECT_GT(storm.czar.nacks_sent, 0u) << "seed " << seed;
    EXPECT_GT(storm.replay_sent, 0u) << "seed " << seed;
    EXPECT_GT(storm.acks_received, 0u) << "seed " << seed;
    // ...while the clean run never needed it.
    EXPECT_EQ(clean.czar.dup_msgs_dropped, 0u) << "seed " << seed;
    EXPECT_EQ(clean.czar.nacks_sent, 0u) << "seed " << seed;
    EXPECT_EQ(clean.replay_sent, 0u) << "seed " << seed;

    // Replay-buffer memory stays bounded: acks trim it every heartbeat,
    // so the high-water mark is far below the eviction limit and the
    // buffers are nearly empty once the storm has passed.
    EXPECT_GT(storm.replay_hwm, 0u) << "seed " << seed;
    EXPECT_LT(storm.replay_hwm, 1024u) << "seed " << seed;
    EXPECT_LT(storm.replay_depth_end, 256u) << "seed " << seed;
  }
}

TEST(ChaosBackplaneTest, RegistrationRetriesThroughALossyBackplane) {
  // Fragment registration happens *inside* the storm window: the RPCs are
  // chaos-dropped and must be retried (same idempotency key, fresh
  // request_id) until they land. Without retries the AQs would never
  // produce a row.
  const std::string storm =
      "<fault_plan>"
      "<event at=\"0.01\" kind=\"loss\" device=\"czar\" prob=\"0.3\""
      " for=\"6\"/>"
      "</fault_plan>";
  ChaosRun run = run_sharded(42, storm, 16.0, 15.0, /*reliable=*/true);
  EXPECT_GT(run.reliable.retries, 0u);
  EXPECT_GT(run.reliable.attempts, run.reliable.calls);
  EXPECT_GT(run.czar.rows_received, 0u);
  ASSERT_FALSE(run.events.empty());
}

TEST(ChaosBackplaneTest, AblationFlagRestoresFailFastStall) {
  // Config::reliable_backplane = false retains nothing for replay: the
  // first chaos-dropped stream message leaves a permanent seq gap (the
  // czar NACKs it, but the worker has nothing to resend), in-seq
  // consumption stalls behind it, and delivery dries up — visibly fewer
  // events than the lossless ablation run.
  const std::string storm =
      "<fault_plan>"
      "<event at=\"2\" kind=\"loss\" device=\"czar\" prob=\"0.25\""
      " for=\"8\"/>"
      "</fault_plan>";
  ChaosRun clean = run_sharded(42, "", 14.0, 14.0, /*reliable=*/false);
  ChaosRun lossy = run_sharded(42, storm, 14.0, 14.0, /*reliable=*/false);

  ASSERT_FALSE(clean.events.empty());
  EXPECT_LT(lossy.events.size(), clean.events.size());
  EXPECT_EQ(clean.czar.nacks_sent, 0u);
  // The policy: gaps are NACKed, but nothing was retained to answer them,
  // and every fragment RPC got exactly one attempt.
  EXPECT_GT(lossy.czar.nacks_sent, 0u);
  EXPECT_EQ(lossy.replay_hwm, 0u);
  EXPECT_EQ(lossy.replay_sent, 0u);
  EXPECT_EQ(lossy.reliable.retries, 0u);
  EXPECT_EQ(lossy.reliable.attempts, lossy.reliable.calls);
  // The stall is observable: out-of-order messages piled up behind the gap.
  EXPECT_GT(lossy.czar.ooo_buffered, 0u);
}

TEST(ChaosBackplaneTest, AblationDropsStaleDuplicates) {
  // Duplicate suppression is not a reliability feature: with
  // Config::reliable_backplane = false a chaos-duplicated stream message
  // whose seq was already consumed must be dropped, not parked in the
  // out-of-order buffer until the next generation bump. Factor 2 copies
  // every message, so originals keep their order and every later copy is
  // stale (a fractional factor duplicates only some messages, which can
  // genuinely reorder two sent at the same instant).
  const std::string dup =
      "<fault_plan>"
      "<event at=\"3\" kind=\"duplicate\" device=\"czar\" factor=\"2\""
      " for=\"7\"/>"
      "</fault_plan>";
  ChaosRun clean = run_sharded(42, "", 14.0, 14.0, /*reliable=*/false);
  ChaosRun duped = run_sharded(42, dup, 14.0, 14.0, /*reliable=*/false);

  ASSERT_FALSE(clean.events.empty());
  EXPECT_GT(duped.czar.dup_msgs_dropped, 0u);
  EXPECT_EQ(duped.czar.ooo_buffered, 0u);
  EXPECT_EQ(duped.events, clean.events);
}

// ---- idempotent dispatch ---------------------------------------------------

// A bare network peer speaking the fragment protocol straight at a worker,
// so the test controls idempotency keys and generations byte-for-byte.
class TestPeer : public net::Endpoint {
 public:
  TestPeer(net::Network* network, net::NodeId self)
      : self_(std::move(self)), rpc_(network, self_) {}

  void on_message(const net::Message& msg) override {
    if (rpc_.on_reply(msg)) return;
  }

  // Send a fragment_register whose idempotency key is (spec.gen, idem_seq)
  // and collect the reply kind into `replies`.
  void send_register(const shard::FragmentSpec& spec, std::uint64_t idem_seq,
                     std::vector<std::string>* replies) {
    net::Message tmp;
    shard::fragment_to_fields(spec, &tmp);
    send(shard::kFragmentRegister, tmp, idem_seq, replies);
  }

  // Same for a fragment_drop of `name` at generation `gen`.
  void send_drop(const std::string& name, std::uint64_t gen,
                 std::uint64_t idem_seq, std::vector<std::string>* replies) {
    net::Message tmp;
    tmp.set("name", name);
    tmp.set_int("gen", static_cast<std::int64_t>(gen));
    send(shard::kFragmentDrop, tmp, idem_seq, replies);
  }

 private:
  void send(const char* kind, net::Message tmp, std::uint64_t idem_seq,
            std::vector<std::string>* replies) {
    tmp.set_int(shard::kIdemSeqField, static_cast<std::int64_t>(idem_seq));
    rpc_.call("shard-0", kind, tmp.fields, Duration::seconds(2.0),
              [replies](util::Result<net::Message> reply) {
                replies->push_back(reply.is_ok() ? reply.value().kind
                                                 : reply.status().to_string());
              });
  }

  net::NodeId self_;
  net::RpcClient rpc_;
};

TEST(ChaosBackplaneTest, IdempotencyWindowDedupsAcrossGenerationBumps) {
  core::Aorta sys(core::Config{});
  ServiceConfig cfg;
  cfg.num_shards = 1;
  QueryService service(&sys, cfg);
  ASSERT_TRUE(service.plane()->add_mote("m0", {0, 0, 1}).is_ok());
  shard::Worker& worker = service.plane()->worker(0);

  TestPeer peer(&sys.network(), "tester");
  ASSERT_TRUE(
      sys.network().attach("tester", &peer, shard::backplane_link()).is_ok());
  sys.run_for(Duration::millis(200));

  shard::FragmentSpec spec;
  spec.name = "q1";
  spec.sql = "CREATE AQ q1 AS SELECT s.temp FROM sensor s";
  spec.gen = 1;
  std::vector<std::string> replies;

  // First copy executes; the worker adopts generation 1.
  peer.send_register(spec, /*idem_seq=*/0, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies, std::vector<std::string>{shard::kFragmentAck});
  EXPECT_EQ(worker.stats().fragments_registered, 1u);
  EXPECT_EQ(worker.fragment_count(), 1u);

  // A retry/chaos duplicate of the same key: served from the idempotency
  // window — the cached ack comes back, nothing re-executes.
  peer.send_register(spec, 0, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1], shard::kFragmentAck);
  EXPECT_EQ(worker.stats().dup_requests, 1u);
  EXPECT_EQ(worker.stats().fragments_registered, 1u);

  // Generation bump: the worker drops q1 and starts fresh with q2.
  shard::FragmentSpec spec2 = spec;
  spec2.name = "q2";
  spec2.sql = "CREATE AQ q2 AS SELECT s.temp FROM sensor s";
  spec2.gen = 2;
  peer.send_register(spec2, /*idem_seq=*/1, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2], shard::kFragmentAck);
  EXPECT_EQ(worker.stats().fragments_registered, 2u);
  EXPECT_EQ(worker.fragment_count(), 1u);  // q1 dropped by the bump

  // A straggling duplicate from *before* the bump still hits its cached
  // reply: the window's keys embed the generation, so it survives the
  // bump instead of re-registering a stale fragment.
  peer.send_register(spec, 0, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3], shard::kFragmentAck);
  EXPECT_EQ(worker.stats().dup_requests, 2u);
  EXPECT_EQ(worker.stats().fragments_registered, 2u);
  EXPECT_EQ(worker.fragment_count(), 1u);

  // A *new* request still carrying the superseded generation is refused
  // as stale — never adopted backwards.
  shard::FragmentSpec spec3 = spec;
  spec3.name = "q3";
  spec3.sql = "CREATE AQ q3 AS SELECT s.temp FROM sensor s";
  spec3.gen = 1;
  peer.send_register(spec3, /*idem_seq=*/7, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[4], shard::kFragmentStale);
  EXPECT_EQ(worker.stats().stale_gen_requests, 1u);
  EXPECT_EQ(worker.fragment_count(), 1u);

  // So is a drop from the superseded generation: q2 was registered under
  // generation 2, and a delayed generation-1 drop must not delete it.
  peer.send_drop("q2", /*gen=*/1, /*idem_seq=*/8, &replies);
  sys.run_for(Duration::millis(300));
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(replies[5], shard::kFragmentStale);
  EXPECT_EQ(worker.fragment_count(), 1u);
  EXPECT_EQ(worker.stats().stale_gen_requests, 2u);
  EXPECT_EQ(worker.stats().fragments_dropped, 0u);

  ASSERT_TRUE(sys.network().detach("tester").is_ok());
}

// ---- gap repair ------------------------------------------------------------

// A bare endpoint standing in for worker 0's result stream: it sends
// sequenced heartbeats to the czar and records the NACKs that come back,
// answering none of them.
class FakeWorkerStream : public net::Endpoint {
 public:
  explicit FakeWorkerStream(net::Network* network) : network_(network) {}

  void on_message(const net::Message& msg) override {
    if (msg.kind == shard::kShardNack) nacks.push_back(msg.field_int("from"));
  }

  void send_heartbeat(std::uint64_t seq) {
    net::Message msg;
    msg.src = shard::worker_node(0);
    msg.dst = shard::kCzarNode;
    msg.kind = shard::kShardHeartbeat;
    msg.set_int("shard", 0);
    msg.set_int("gen", 0);
    msg.set_int("seq", static_cast<std::int64_t>(seq));
    msg.set_int("watermark_us", 0);
    network_->send(std::move(msg));
  }

  std::vector<std::int64_t> nacks;  // the `from` of each NACK received

 private:
  net::Network* network_;
};

TEST(ChaosBackplaneTest, OpenGapIsNackedAgainWithoutFurtherStreamTraffic) {
  // A worker whose flushes are one message each may send nothing for a
  // second, so a gap whose NACK or replay is lost must be asked for again
  // on a timer, not only when the next message arrives.
  core::Aorta sys(core::Config{});
  shard::Czar czar(&sys, shard::Czar::Options{});  // one shard
  FakeWorkerStream worker(&sys.network());
  ASSERT_TRUE(sys.network()
                  .attach(shard::worker_node(0), &worker,
                          shard::backplane_link())
                  .is_ok());

  // seq 0 never arrives; seq 1 opens the gap [0, 1). It is NACKed on
  // arrival and again every kNackInterval (100 ms) while it stays open.
  worker.send_heartbeat(1);
  sys.run_for(Duration::millis(350));
  EXPECT_EQ(worker.nacks, (std::vector<std::int64_t>{0, 0, 0, 0}));
  EXPECT_EQ(czar.stats().heartbeats_received, 0u);
  EXPECT_EQ(czar.stats().nacks_sent, 4u);

  // The retransmission closes the gap: both heartbeats are consumed and
  // the NACKs stop.
  worker.send_heartbeat(0);
  sys.run_for(Duration::millis(500));
  EXPECT_EQ(czar.stats().heartbeats_received, 2u);
  EXPECT_EQ(czar.stats().nacks_sent, 4u);
  ASSERT_TRUE(sys.network().detach(shard::worker_node(0)).is_ok());
}

// ---- partial SELECT surfacing ----------------------------------------------

TEST(ChaosBackplaneTest, PartialSelectIsMarkedAndAggregatesAreRejected) {
  core::Config config;
  config.seed = 42;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);
  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    service.plane()->mote(id)->reliability().glitch_prob = 0.0;
    (void)service.plane()->mote(id)->set_signal(
        "temp", devices::constant_signal(20.0 + i));
    (void)sys.network().set_link(id, shard::backplane_link());
  }
  SessionId id = service.connect("acme");
  sys.run_for(Duration::seconds(1.5));

  // Shard 1 falls off the backplane. Its register RPC burns through the
  // reliable retries (still live at dispatch time) and gives up; the
  // result must say so instead of passing off a subset as the answer.
  sys.network().partition("shard-1");
  auto plain = service.submit(id, "SELECT s.temp FROM sensor s");
  ASSERT_TRUE(plain.is_ok());
  sys.run_for(Duration::seconds(10.0));

  bool saw_partial = false;
  for (const Delivery& d : service.session(id)->drain()) {
    if (d.kind != Delivery::Kind::kResult ||
        d.statement_id != plain.value()) {
      continue;
    }
    saw_partial = true;
    EXPECT_EQ(d.shards_answered, 1);
    EXPECT_EQ(d.shards_total, 2);
    EXPECT_NE(d.message.find("[partial]"), std::string::npos) << d.message;
    EXPECT_FALSE(d.rows.empty());  // shard 0's slice still came back
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_EQ(service.tenant_stats().at("acme").partial_results, 1u);
  EXPECT_GE(service.plane()->czar().stats().partial_selects, 1u);
  EXPECT_FALSE(service.plane()->czar().worker_live(1));
  const net::ReliableCallStats& rs = service.plane()->czar().reliable_stats();
  EXPECT_GE(rs.retries, 1u);
  EXPECT_GE(rs.giveups, 1u);

  // An aggregate over a subset of the shards would be wrong, not smaller:
  // the partial is rejected outright.
  auto agg = service.submit(id, "SELECT count(*) FROM sensor s");
  ASSERT_TRUE(agg.is_ok());
  sys.run_for(Duration::seconds(10.0));
  bool saw_error = false;
  for (const Delivery& d : service.session(id)->drain()) {
    if (d.statement_id != agg.value()) continue;
    ASSERT_EQ(d.kind, Delivery::Kind::kError) << d.message;
    EXPECT_NE(d.message.find("partial aggregate"), std::string::npos)
        << d.message;
    saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST(ChaosBackplaneTest, AblationSelectGivesUpAfterOneAttempt) {
  // The ablation dispatches through the same ReliableCall with a single
  // attempt: the register RPC to a partitioned shard fails after one 1 s
  // attempt timeout with no retry, and the SELECT settles as partial.
  core::Config config;
  config.seed = 42;
  config.reliable_backplane = false;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.mailbox_capacity = 1 << 20;
  QueryService service(&sys, cfg);
  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    service.plane()->mote(id)->reliability().glitch_prob = 0.0;
    (void)service.plane()->mote(id)->set_signal(
        "temp", devices::constant_signal(20.0 + i));
    (void)sys.network().set_link(id, shard::backplane_link());
  }
  SessionId id = service.connect("acme");
  sys.run_for(Duration::seconds(1.5));

  sys.network().partition("shard-1");
  auto plain = service.submit(id, "SELECT s.temp FROM sensor s");
  ASSERT_TRUE(plain.is_ok());
  sys.run_for(Duration::seconds(2.0));

  bool saw_partial = false;
  for (const Delivery& d : service.session(id)->drain()) {
    if (d.kind != Delivery::Kind::kResult ||
        d.statement_id != plain.value()) {
      continue;
    }
    saw_partial = true;
    EXPECT_EQ(d.shards_answered, 1);
    EXPECT_EQ(d.shards_total, 2);
    EXPECT_NE(d.message.find("[partial]"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(saw_partial);
  const net::ReliableCallStats& rs = service.plane()->czar().reliable_stats();
  EXPECT_GE(rs.calls, 2u);
  EXPECT_EQ(rs.retries, 0u);
  EXPECT_EQ(rs.attempts, rs.calls);
  EXPECT_GE(rs.giveups, 1u);
}

}  // namespace
}  // namespace aorta
