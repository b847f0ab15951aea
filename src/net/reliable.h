// Reliable request dispatch over RpcClient: retries and retry budgets.
//
// RpcClient deliberately has no retries ("Aorta's policy on loss is to
// time out ... and move on") — the right policy for lossy sensor links,
// but not for the czar<->worker backplane, where a lost fragment RPC must
// not strand a statement. ReliableCall wraps RpcClient with:
//
//   * capped-exponential-backoff retries, up to the owner's attempt count
//     (deterministic jitter drawn from a dedicated, constant-derived RNG
//     stream so retrying never perturbs any other stream);
//   * a per-peer retry token bucket, so a dead peer cannot amplify load.
//
// A call that runs out of attempts or of retry budget fails to its
// callback with the last attempt's error; what a failure means is the
// owner's decision (the czar marks the shard down, DESIGN.md §14). The
// policy values are constants in reliable.cc.
//
// Retried requests re-send the exact same fields (including any
// idempotency key) under a fresh request_id; dedup is the receiver's job
// (see shard/fragment.h).
#pragma once

#include <cstdint>
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
};

class ReliableCall {
 public:
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

  // Forget a peer's retry budget (supervision recovered it).
  void reset_peer(const NodeId& dst) { budgets_.erase(dst); }

  const ReliableCallStats& stats() const { return stats_; }

 private:
  // A peer's retry token bucket, full when first used.
  struct Budget {
    double tokens = 0.0;
    aorta::util::TimePoint last_refill;
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
  bool take_retry_token(const NodeId& dst);

  RpcClient* rpc_;
  aorta::util::EventLoop* loop_;
  aorta::util::Rng rng_;
  int max_attempts_;
  std::shared_ptr<bool> alive_;
  std::map<NodeId, Budget> budgets_;
  ReliableCallStats stats_;
};

}  // namespace aorta::net
