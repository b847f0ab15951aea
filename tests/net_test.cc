// Tests for the simulated device network and the RPC layer.
#include <gtest/gtest.h>

#include "net/rpc.h"

namespace aorta::net {
namespace {

using util::Duration;

// Records everything it receives.
class Recorder : public Endpoint {
 public:
  void on_message(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

// Replies to every request after an optional handling delay.
class Echo : public Endpoint {
 public:
  Echo(Network* network, util::EventLoop* loop, Duration delay = Duration::zero())
      : network_(network), loop_(loop), delay_(delay) {}
  void on_message(const Message& msg) override {
    Message reply = make_reply(msg, "echo_ack");
    if (delay_ == Duration::zero()) {
      network_->send(std::move(reply));
    } else {
      loop_->schedule(delay_, [this, reply]() { network_->send(reply); });
    }
  }

 private:
  Network* network_;
  util::EventLoop* loop_;
  Duration delay_;
};

struct NetFixture : public ::testing::Test {
  NetFixture() : loop(&clock), network(&loop, util::Rng(1)) {}
  util::SimClock clock;
  util::EventLoop loop;
  Network network;
};

TEST_F(NetFixture, DeliversWithLatency) {
  Recorder sink;
  LinkModel link = LinkModel::perfect();
  link.latency_mean_s = 0.010;
  ASSERT_TRUE(network.attach("sink", &sink, link).is_ok());

  Message msg;
  msg.dst = "sink";
  msg.kind = "ping";
  network.send(msg);
  EXPECT_TRUE(sink.received.empty());  // not synchronous
  loop.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].kind, "ping");
  EXPECT_GE(clock.now().to_seconds(), 0.010);
}

TEST_F(NetFixture, AttachRejectsDuplicatesAndNull) {
  Recorder sink;
  ASSERT_TRUE(network.attach("a", &sink, LinkModel::perfect()).is_ok());
  EXPECT_FALSE(network.attach("a", &sink, LinkModel::perfect()).is_ok());
  EXPECT_FALSE(network.attach("b", nullptr, LinkModel::perfect()).is_ok());
}

TEST_F(NetFixture, NoRouteCountsDrop) {
  Message msg;
  msg.dst = "ghost";
  network.send(msg);
  loop.run_all();
  EXPECT_EQ(network.stats().dropped_no_route, 1u);
  EXPECT_EQ(network.stats().delivered, 0u);
}

TEST_F(NetFixture, DetachStopsDelivery) {
  Recorder sink;
  ASSERT_TRUE(network.attach("sink", &sink, LinkModel::perfect()).is_ok());
  ASSERT_TRUE(network.detach("sink").is_ok());
  EXPECT_FALSE(network.detach("sink").is_ok());  // double detach fails
  Message msg;
  msg.dst = "sink";
  network.send(msg);
  loop.run_all();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetFixture, DetachWhileInFlightDropsAtDelivery) {
  Recorder sink;
  LinkModel slow = LinkModel::perfect();
  slow.latency_mean_s = 0.5;
  ASSERT_TRUE(network.attach("sink", &sink, slow).is_ok());
  Message msg;
  msg.dst = "sink";
  network.send(msg);
  ASSERT_TRUE(network.detach("sink").is_ok());  // leaves mid-flight
  loop.run_all();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(network.stats().dropped_no_route, 1u);
}

TEST_F(NetFixture, LossyLinkDropsSomeMessages) {
  Recorder sink;
  LinkModel lossy = LinkModel::perfect();
  lossy.loss_prob = 0.5;
  ASSERT_TRUE(network.attach("sink", &sink, lossy).is_ok());
  for (int i = 0; i < 200; ++i) {
    Message msg;
    msg.dst = "sink";
    network.send(msg);
  }
  loop.run_all();
  EXPECT_GT(sink.received.size(), 50u);
  EXPECT_LT(sink.received.size(), 150u);
  EXPECT_EQ(network.stats().dropped_loss + sink.received.size(), 200u);
}

TEST_F(NetFixture, PartitionBlocksAndHealRestores) {
  Recorder sink;
  ASSERT_TRUE(network.attach("sink", &sink, LinkModel::perfect()).is_ok());
  network.partition("sink");
  EXPECT_TRUE(network.is_partitioned("sink"));
  Message msg;
  msg.dst = "sink";
  network.send(msg);
  loop.run_all();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(network.stats().dropped_partition, 1u);

  network.heal("sink");
  network.send(msg);
  loop.run_all();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetFixture, BandwidthAddsSerializationDelay) {
  Recorder sink;
  LinkModel thin = LinkModel::perfect();
  thin.bandwidth_bytes_per_s = 1000.0;
  ASSERT_TRUE(network.attach("sink", &sink, thin).is_ok());
  Message big;
  big.dst = "sink";
  big.payload_bytes = 5000;  // 5 seconds at 1 kB/s
  network.send(big);
  loop.run_all();
  EXPECT_NEAR(clock.now().to_seconds(), 5.0, 1e-6);
}

TEST_F(NetFixture, LatencyDistributionMatchesLinkModel) {
  Recorder sink;
  LinkModel link = LinkModel::perfect();
  link.latency_mean_s = 0.020;
  link.latency_jitter_s = 0.005;
  ASSERT_TRUE(network.attach("sink", &sink, link).is_ok());

  // Send one message at a time and measure per-message delay.
  double total_s = 0.0;
  const int kMessages = 300;
  for (int i = 0; i < kMessages; ++i) {
    util::TimePoint before = clock.now();
    Message msg;
    msg.dst = "sink";
    msg.payload_bytes = 0;
    network.send(msg);
    loop.run_all();
    total_s += (clock.now() - before).to_seconds();
  }
  double mean = total_s / kMessages;
  EXPECT_NEAR(mean, 0.020, 0.002);  // sampled mean tracks the model
}

TEST_F(NetFixture, SetLinkReplacesModel) {
  Recorder sink;
  ASSERT_TRUE(network.attach("sink", &sink, LinkModel::perfect()).is_ok());
  LinkModel lossy = LinkModel::perfect();
  lossy.loss_prob = 1.0;
  ASSERT_TRUE(network.set_link("sink", lossy).is_ok());
  EXPECT_FALSE(network.set_link("ghost", lossy).is_ok());
  Message msg;
  msg.dst = "sink";
  network.send(msg);
  loop.run_all();
  EXPECT_TRUE(sink.received.empty());
}

TEST(MessageTest, TypedFieldHelpers) {
  Message msg;
  msg.set("s", "text").set_double("d", 2.5).set_int("i", -7);
  EXPECT_EQ(msg.field("s"), "text");
  EXPECT_EQ(msg.field("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(msg.field_double("d"), 2.5);
  EXPECT_EQ(msg.field_int("i"), -7);
  EXPECT_DOUBLE_EQ(msg.field_double("s", -1.0), -1.0);
  EXPECT_EQ(msg.field_int("absent", 9), 9);
}

// ---------------------------------------------------------------- RPC

struct RpcFixture : public NetFixture {
  RpcFixture() : client_node(&network), echo(&network, &loop) {
    (void)network.attach("client", &client_node, LinkModel::perfect());
    (void)network.attach("echo", &echo, LinkModel::perfect());
  }

  struct ClientNode : public Endpoint {
    explicit ClientNode(Network* network) : rpc(network, "client") {}
    void on_message(const Message& msg) override { rpc.on_reply(msg); }
    RpcClient rpc;
  };

  ClientNode client_node;
  Echo echo;
};

TEST_F(RpcFixture, RoundTripDeliversReply) {
  bool called = false;
  client_node.rpc.call("echo", "ping", {{"k", "v"}}, Duration::seconds(1),
                       [&](util::Result<Message> reply) {
                         called = true;
                         ASSERT_TRUE(reply.is_ok());
                         EXPECT_EQ(reply.value().kind, "echo_ack");
                       });
  loop.run_all();
  EXPECT_TRUE(called);
  EXPECT_EQ(client_node.rpc.completed(), 1u);
  EXPECT_EQ(client_node.rpc.timeouts(), 0u);
}

TEST_F(RpcFixture, TimesOutWhenNoReply) {
  network.partition("echo");
  bool called = false;
  client_node.rpc.call("echo", "ping", {}, Duration::millis(100),
                       [&](util::Result<Message> reply) {
                         called = true;
                         EXPECT_FALSE(reply.is_ok());
                         EXPECT_EQ(reply.status().code(),
                                   util::StatusCode::kTimeout);
                       });
  loop.run_all();
  EXPECT_TRUE(called);
  EXPECT_EQ(client_node.rpc.timeouts(), 1u);
  EXPECT_NEAR(clock.now().to_seconds(), 0.1, 1e-6);
}

TEST_F(RpcFixture, LateReplyAfterTimeoutIsIgnored) {
  // The echo replies after 200 ms but the client gives up at 50 ms.
  Echo slow_echo(&network, &loop, Duration::millis(200));
  (void)network.attach("slow", &slow_echo, LinkModel::perfect());
  int calls = 0;
  client_node.rpc.call("slow", "ping", {}, Duration::millis(50),
                       [&](util::Result<Message> reply) {
                         ++calls;
                         EXPECT_FALSE(reply.is_ok());
                       });
  loop.run_all();
  EXPECT_EQ(calls, 1);  // exactly once, despite the late reply arriving
  // The late reply is accounted, not silently dropped.
  EXPECT_EQ(client_node.rpc.stats().late_replies, 1u);
  EXPECT_EQ(client_node.rpc.stats().timeouts, 1u);
}

TEST_F(RpcFixture, LateReplyIsConsumedNotMisroutedAsPush) {
  Echo slow_echo(&network, &loop, Duration::millis(200));
  (void)network.attach("slow", &slow_echo, LinkModel::perfect());
  client_node.rpc.call("slow", "ping", {}, Duration::millis(50),
                       [](util::Result<Message>) {});
  // Run past the timeout but stop before the late reply arrives, then
  // deliver it by hand: on_reply must claim it (returns true) so the
  // endpoint doesn't forward a stale rpc reply to its push handler.
  loop.run_for(Duration::millis(100));
  Message late = make_reply(Message{}, "echo_ack");
  late.dst = "client";
  late.request_id = 1;  // first id the client allocated
  EXPECT_TRUE(client_node.rpc.on_reply(late));
  EXPECT_EQ(client_node.rpc.stats().late_replies, 1u);
}

TEST_F(RpcFixture, EndpointStatsTrackQueueDepthAndSlowPeers) {
  Echo slow_echo(&network, &loop, Duration::millis(200));
  (void)network.attach("slow", &slow_echo, LinkModel::perfect());
  client_node.rpc.set_slow_threshold(Duration::millis(100));

  // Two overlapping calls to the slow peer plus one to the fast echo.
  client_node.rpc.call("slow", "ping", {}, Duration::seconds(5),
                       [](util::Result<Message>) {});
  client_node.rpc.call("slow", "ping", {}, Duration::seconds(5),
                       [](util::Result<Message>) {});
  client_node.rpc.call("echo", "ping", {}, Duration::seconds(5),
                       [](util::Result<Message>) {});
  const auto& stats = client_node.rpc.endpoint_stats();
  EXPECT_EQ(stats.at("slow").calls, 2u);
  EXPECT_EQ(stats.at("slow").in_flight, 2u);  // queue depth while pending

  loop.run_all();
  EXPECT_EQ(stats.at("slow").in_flight, 0u);
  EXPECT_EQ(stats.at("slow").max_in_flight, 2u);  // high-water mark sticks
  EXPECT_EQ(stats.at("slow").slow_replies, 2u);   // 200 ms > 100 ms bound
  EXPECT_EQ(stats.at("slow").timeouts, 0u);
  EXPECT_EQ(stats.at("echo").calls, 1u);
  EXPECT_EQ(stats.at("echo").slow_replies, 0u);
  EXPECT_EQ(client_node.rpc.stats().slow_replies, 2u);

  // A timeout settles the endpoint entry too: depth drains, miss counted.
  network.partition("slow");
  client_node.rpc.call("slow", "ping", {}, Duration::millis(50),
                       [](util::Result<Message>) {});
  EXPECT_EQ(stats.at("slow").in_flight, 1u);
  loop.run_all();
  EXPECT_EQ(stats.at("slow").in_flight, 0u);
  EXPECT_EQ(stats.at("slow").timeouts, 1u);
}

// An endpoint that can refuse delivery, standing in for an offline device.
class Refusing : public Endpoint {
 public:
  void on_message(const Message& msg) override { received.push_back(msg); }
  bool accepting() const override { return accepting_; }
  std::vector<Message> received;
  bool accepting_ = true;
};

TEST_F(RpcFixture, OfflineEndpointBouncesRequestBeforeTimeout) {
  Refusing dev;
  LinkModel slow = LinkModel::perfect();
  slow.latency_mean_s = 0.050;
  (void)network.attach("dev", &dev, slow);
  bool called = false;
  client_node.rpc.call("dev", "read_attr", {}, Duration::seconds(5),
                       [&](util::Result<Message> reply) {
                         called = true;
                         EXPECT_FALSE(reply.is_ok());
                         EXPECT_EQ(reply.status().code(),
                                   util::StatusCode::kUnavailable);
                       });
  // The device drops offline while the request is in flight.
  dev.accepting_ = false;
  loop.run_all();
  EXPECT_TRUE(called);
  EXPECT_TRUE(dev.received.empty());
  // Fail-fast: the bounce beats the 5 s timeout by a wide margin.
  EXPECT_LT(clock.now().to_seconds(), 0.5);
  EXPECT_EQ(network.stats().dropped_offline, 1u);
  EXPECT_EQ(network.stats().bounced, 1u);
  EXPECT_EQ(client_node.rpc.stats().unreachable, 1u);
  EXPECT_EQ(client_node.rpc.stats().timeouts, 0u);
}

TEST_F(NetFixture, NonRequestMessagesAreNeverBounced) {
  // One-way pushes carry no request_id contract: an offline receiver just
  // drops them, it must not synthesize unreachable notices.
  Recorder src;
  Refusing dev;
  dev.accepting_ = false;
  (void)network.attach("src", &src, LinkModel::perfect());
  (void)network.attach("dev", &dev, LinkModel::perfect());
  Message push;
  push.src = "src";
  push.dst = "dev";
  push.kind = "push";
  network.send(push);
  loop.run_all();
  EXPECT_EQ(network.stats().dropped_offline, 1u);
  EXPECT_EQ(network.stats().bounced, 0u);
  EXPECT_TRUE(src.received.empty());
}

TEST_F(RpcFixture, ConcurrentCallsDemultiplexCorrectly) {
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    client_node.rpc.call("echo", "ping", {{"n", std::to_string(i)}},
                         Duration::seconds(1),
                         [&](util::Result<Message> reply) {
                           ASSERT_TRUE(reply.is_ok());
                           ++answered;
                         });
  }
  loop.run_all();
  EXPECT_EQ(answered, 10);
}

TEST_F(RpcFixture, UnsolicitedMessageIsNotConsumedAsReply) {
  Message stray;
  stray.dst = "client";
  stray.kind = "push";
  stray.request_id = 0;
  EXPECT_FALSE(client_node.rpc.on_reply(stray));
  stray.request_id = 424242;  // unknown id
  EXPECT_FALSE(client_node.rpc.on_reply(stray));
}

// Another client's request may carry the id of one of our pending or
// timed-out calls (every client counts from 1). It is a request for the
// owner's push handler, never a reply: the call stays open, and a timed-
// out id does not swallow it as a late reply.
TEST_F(RpcFixture, ForeignRequestWithAMatchingIdIsNotAReply) {
  network.partition("echo");
  int calls = 0;
  client_node.rpc.call("echo", "ping", {}, Duration::millis(50),
                       [&calls](util::Result<Message>) { ++calls; });
  client_node.rpc.call("echo", "ping", {}, Duration::seconds(1),
                       [&calls](util::Result<Message>) { ++calls; });
  loop.run_for(Duration::millis(100));  // call 1 timed out, call 2 pending
  Message request;
  request.src = "czar";
  request.dst = "client";
  request.kind = "fragment_register";
  request.is_request = true;
  for (std::uint64_t id : {1, 2}) {
    request.request_id = id;
    EXPECT_FALSE(client_node.rpc.on_reply(request)) << id;
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client_node.rpc.stats().late_replies, 0u);
  EXPECT_EQ(client_node.rpc.completed(), 0u);
}

}  // namespace
}  // namespace aorta::net
