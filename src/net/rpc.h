// Request/response messaging with timeouts over the simulated network.
//
// The probing mechanism (Section 4) and the basic communication methods
// (Section 3.3) both need "send a request, wait bounded time for a reply"
// semantics; RpcClient provides that. There are no retries at this layer —
// Aorta's policy on loss is to time out, exclude the device from device
// selection, and move on, which is what the paper describes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "net/network.h"
#include "obs/trace.h"
#include "util/status.h"

namespace aorta::net {

// Completion callback: a reply Message, a kTimeout status, or a
// kUnavailable status when the network bounced the request (destination
// offline or detached).
using RpcCallback = std::function<void(aorta::util::Result<Message>)>;

struct RpcStats {
  std::uint64_t completed = 0;     // replies delivered to callers
  std::uint64_t timeouts = 0;      // calls that expired with no reply
  std::uint64_t late_replies = 0;  // replies that lost the race to a timeout
  std::uint64_t unreachable = 0;   // calls failed fast by a network bounce
  std::uint64_t slow_replies = 0;  // replies slower than the slow-peer bound
};

// Per-destination counters: queue depth (in-flight calls awaiting a reply
// or timeout) and how often the peer answered slower than the slow-peer
// bound — the backpressure signal a czar needs about each worker.
struct RpcEndpointStats {
  std::uint64_t calls = 0;          // requests issued to this peer
  std::uint64_t in_flight = 0;      // outstanding right now
  std::uint64_t max_in_flight = 0;  // high-water queue depth
  std::uint64_t timeouts = 0;       // calls to this peer that expired
  std::uint64_t slow_replies = 0;   // replies past the slow-peer bound
};

// Client half. Owns a node id on the network and demultiplexes replies by
// request_id. The owner must route inbound messages for that node id to
// on_reply() (typically from its Endpoint::on_message).
class RpcClient {
 public:
  RpcClient(Network* network, NodeId self) : network_(network), self_(std::move(self)) {}
  // Cancels the timeouts of calls still in flight: their callbacks never
  // fire, and nothing of the client stays queued on the loop.
  ~RpcClient();

  // Issue a request. `callback` fires exactly once: with the reply, or
  // with kTimeout after `timeout` if no reply arrived.
  void call(NodeId dst, std::string kind,
            std::map<std::string, std::string> fields,
            aorta::util::Duration timeout, RpcCallback callback,
            std::size_t payload_bytes = 64);

  // Feed a message received on the owner's endpoint. Returns true if it
  // was a reply to an outstanding or recently-timed-out call (and was
  // consumed — late replies must not leak to the push handler).
  bool on_reply(const Message& msg);

  const NodeId& self() const { return self_; }
  const RpcStats& stats() const { return stats_; }
  std::uint64_t timeouts() const { return stats_.timeouts; }
  std::uint64_t completed() const { return stats_.completed; }

  // Per-destination queue-depth / slow-peer counters, keyed by node id.
  // Entries appear on first call to a destination and are never dropped.
  const std::map<NodeId, RpcEndpointStats>& endpoint_stats() const {
    return endpoint_stats_;
  }

  // A completed reply counts as slow when its round trip exceeds this
  // bound (globally in RpcStats::slow_replies and per destination).
  // Default 1 s: well past any healthy simulated link's round trip.
  void set_slow_threshold(aorta::util::Duration d) { slow_threshold_ = d; }

  // Span tracing (nullable = off): every call records an `rpc` span from
  // issue to reply/timeout/bounce. The per-call labels are only captured
  // while the tracer is live, so a disabled tracer costs nothing.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Pending {
    RpcCallback callback;
    aorta::util::EventId timeout_event;
    aorta::util::TimePoint started;
    NodeId dst;
    std::string trace_kind;  // non-empty only when traced
  };

  void trace_span(const Pending& pending, const char* outcome);
  // Close out one in-flight call against its endpoint entry; counts the
  // reply as slow when `completed_rtt` (replies only) exceeds the bound.
  void settle_endpoint(const Pending& pending, bool timed_out,
                       bool completed);

  Network* network_;
  NodeId self_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  // Request ids whose timeout already fired, kept (bounded) so a straggler
  // reply is recognised and counted instead of silently dropped.
  std::set<std::uint64_t> timed_out_;
  RpcStats stats_;
  std::map<NodeId, RpcEndpointStats> endpoint_stats_;
  aorta::util::Duration slow_threshold_ = aorta::util::Duration::seconds(1.0);
};

// Server-side helper: build a reply to `request` with the same request_id.
Message make_reply(const Message& request, std::string kind,
                   std::size_t payload_bytes = 64);

}  // namespace aorta::net
