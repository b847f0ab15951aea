// Reliable request dispatch over RpcClient: retries, budgets, breakers.
//
// RpcClient deliberately has no retries ("Aorta's policy on loss is to
// time out ... and move on") — the right policy for lossy sensor links,
// but not for the czar<->worker backplane, where a lost fragment RPC must
// not strand a statement. ReliableCall wraps RpcClient with:
//
//   * capped-exponential-backoff retries, up to the owner's attempt count
//     (deterministic jitter drawn from a dedicated, constant-derived RNG
//     stream so retrying never perturbs any other stream);
//   * a per-peer retry token bucket, so a dead peer cannot amplify load;
//   * a per-peer circuit breaker (Closed -> Open -> HalfOpen): after
//     kBreakerThreshold consecutive failures the peer is short-circuited
//     for kBreakerOpenFor instead of burning full timeouts, and the
//     owner's peer-down hook fires so supervision can react immediately.
//
// The policy values are constants in reliable.cc.
//
// Retried requests re-send the exact same fields (including any
// idempotency key) under a fresh request_id; dedup is the receiver's job
// (see shard/fragment.h). DESIGN.md §14 documents the whole protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/rpc.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace aorta::net {

struct ReliableCallStats {
  std::uint64_t calls = 0;             // logical calls issued by the owner
  std::uint64_t attempts = 0;          // physical RPC attempts
  std::uint64_t retries = 0;           // attempts beyond the first
  std::uint64_t giveups = 0;           // calls failed after the last attempt
  std::uint64_t budget_exhausted = 0;  // retries denied by an empty bucket
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_rejects = 0;   // calls short-circuited while open
};

class ReliableCall {
 public:
  // Fired (once per transition to Open) when a peer's breaker opens —
  // the fast supervision signal.
  using PeerDownHook = std::function<void(const NodeId&)>;

  ReliableCall(RpcClient* rpc, aorta::util::EventLoop* loop,
               aorta::util::Rng rng, int max_attempts)
      : rpc_(rpc), loop_(loop), rng_(std::move(rng)),
        max_attempts_(max_attempts), alive_(std::make_shared<bool>(true)) {}
  ~ReliableCall() { *alive_ = false; }

  ReliableCall(const ReliableCall&) = delete;
  ReliableCall& operator=(const ReliableCall&) = delete;

  // Issue a call. `callback` fires exactly once: with the first reply, or
  // with the last attempt's error once retries are exhausted / denied.
  void call(NodeId dst, std::string kind,
            std::map<std::string, std::string> fields, RpcCallback callback,
            std::size_t payload_bytes = 64);

  // Forget a peer's breaker/budget state (supervision recovered it).
  void reset_peer(const NodeId& dst);

  void set_peer_down_hook(PeerDownHook hook) { peer_down_ = std::move(hook); }
  const ReliableCallStats& stats() const { return stats_; }

 private:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  struct Peer {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    double tokens = 0.0;  // initialised to the full budget on first use
    bool tokens_init = false;
    aorta::util::TimePoint last_refill;
    aorta::util::TimePoint open_until;
    bool probe_in_flight = false;  // HalfOpen admits a single probe
  };

  struct Call {
    NodeId dst;
    std::string kind;
    std::map<std::string, std::string> fields;
    RpcCallback callback;
    std::size_t payload_bytes = 0;
    int attempt = 0;
  };

  void attempt(std::shared_ptr<Call> call);
  void on_attempt_result(std::shared_ptr<Call> call,
                         aorta::util::Result<Message> result);
  bool take_retry_token(Peer& peer);
  void open_breaker(const NodeId& dst, Peer& peer);
  Peer& peer(const NodeId& dst) { return peers_[dst]; }

  RpcClient* rpc_;
  aorta::util::EventLoop* loop_;
  aorta::util::Rng rng_;
  int max_attempts_;
  std::shared_ptr<bool> alive_;
  PeerDownHook peer_down_;
  std::map<NodeId, Peer> peers_;
  ReliableCallStats stats_;
};

}  // namespace aorta::net
