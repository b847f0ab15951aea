#include "net/reliable.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace aorta::net {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::TimePoint;

namespace {
// The retry policy (DESIGN.md §14); the attempt count is the owner's.
constexpr Duration kAttemptTimeout = Duration::seconds(1.0);
constexpr Duration kBackoffBase = Duration::millis(100);
constexpr Duration kBackoffCap = Duration::seconds(1.0);
constexpr double kJitterFrac = 0.2;  // backoff scaled by uniform(1-j, 1+j)
// Per-peer retry token bucket: a retry spends one token; tokens refill at
// kRetryRefillPerS up to kRetryBudget.
constexpr double kRetryBudget = 16.0;
constexpr double kRetryRefillPerS = 4.0;
// Per-peer circuit breaker: consecutive failures before opening, and how
// long it stays open before admitting a half-open probe.
constexpr int kBreakerThreshold = 4;
constexpr Duration kBreakerOpenFor = Duration::seconds(2.0);
}  // namespace

void ReliableCall::call(NodeId dst, std::string kind,
                        std::map<std::string, std::string> fields,
                        RpcCallback callback, std::size_t payload_bytes) {
  ++stats_.calls;
  Peer& p = peer(dst);
  const TimePoint now = loop_->now();
  if (p.state == BreakerState::kOpen) {
    if (now < p.open_until) {
      ++stats_.breaker_rejects;
      // Fail asynchronously so callers never re-enter themselves.
      loop_->schedule(Duration::zero(),
                      [cb = std::move(callback), dst]() {
                        cb(Result<Message>(aorta::util::unavailable_error(
                            "circuit open to " + dst)));
                      });
      return;
    }
    p.state = BreakerState::kHalfOpen;
    p.probe_in_flight = false;
    ++stats_.breaker_half_opens;
  }
  if (p.state == BreakerState::kHalfOpen && p.probe_in_flight) {
    ++stats_.breaker_rejects;
    loop_->schedule(Duration::zero(), [cb = std::move(callback), dst]() {
      cb(Result<Message>(aorta::util::unavailable_error(
          "circuit half-open to " + dst + ": probe outstanding")));
    });
    return;
  }

  auto call_state = std::make_shared<Call>();
  call_state->dst = std::move(dst);
  call_state->kind = std::move(kind);
  call_state->fields = std::move(fields);
  call_state->callback = std::move(callback);
  call_state->payload_bytes = payload_bytes;
  attempt(std::move(call_state));
}

void ReliableCall::attempt(std::shared_ptr<Call> call) {
  ++stats_.attempts;
  ++call->attempt;
  Peer& p = peer(call->dst);
  if (p.state == BreakerState::kHalfOpen) p.probe_in_flight = true;
  auto alive = alive_;
  rpc_->call(call->dst, call->kind, call->fields, kAttemptTimeout,
             [this, alive, call](Result<Message> result) {
               if (!*alive) return;
               on_attempt_result(call, std::move(result));
             },
             call->payload_bytes);
}

void ReliableCall::on_attempt_result(std::shared_ptr<Call> call,
                                     Result<Message> result) {
  Peer& p = peer(call->dst);
  p.probe_in_flight = false;
  if (result.is_ok()) {
    // Any reply — including an application-level error — proves the peer
    // and the link are alive.
    p.consecutive_failures = 0;
    if (p.state != BreakerState::kClosed) {
      p.state = BreakerState::kClosed;
      ++stats_.breaker_closes;
    }
    call->callback(std::move(result));
    return;
  }

  // Timeout or bounce: count toward the breaker.
  ++p.consecutive_failures;
  if (p.state == BreakerState::kHalfOpen) {
    open_breaker(call->dst, p);  // failed probe: back to Open
  } else if (p.state == BreakerState::kClosed &&
             p.consecutive_failures >= kBreakerThreshold) {
    open_breaker(call->dst, p);
  }

  if (call->attempt >= max_attempts_) {
    ++stats_.giveups;
    call->callback(std::move(result));
    return;
  }
  if (p.state == BreakerState::kOpen) {
    // The breaker opened under this call: surface the failure now rather
    // than queueing retries behind a peer supervision just declared dead.
    call->callback(std::move(result));
    return;
  }
  if (!take_retry_token(p)) {
    ++stats_.budget_exhausted;
    call->callback(std::move(result));
    return;
  }

  ++stats_.retries;
  double backoff_s = kBackoffBase.to_seconds();
  for (int i = 1; i < call->attempt; ++i) backoff_s *= 2.0;
  backoff_s = std::min(backoff_s, kBackoffCap.to_seconds());
  backoff_s *= rng_.uniform(1.0 - kJitterFrac, 1.0 + kJitterFrac);
  auto alive = alive_;
  loop_->schedule(Duration::seconds(backoff_s),
                  [this, alive, call = std::move(call)]() mutable {
                    if (!*alive) return;
                    attempt(std::move(call));
                  });
}

bool ReliableCall::take_retry_token(Peer& p) {
  const TimePoint now = loop_->now();
  if (!p.tokens_init) {
    p.tokens = kRetryBudget;
    p.tokens_init = true;
  } else {
    const double elapsed_s = (now - p.last_refill).to_seconds();
    p.tokens = std::min(kRetryBudget, p.tokens + elapsed_s * kRetryRefillPerS);
  }
  p.last_refill = now;
  if (p.tokens < 1.0) return false;
  p.tokens -= 1.0;
  return true;
}

void ReliableCall::open_breaker(const NodeId& dst, Peer& p) {
  p.state = BreakerState::kOpen;
  p.open_until = loop_->now() + kBreakerOpenFor;
  ++stats_.breaker_opens;
  if (peer_down_) peer_down_(dst);
}

void ReliableCall::reset_peer(const NodeId& dst) { peers_.erase(dst); }

}  // namespace aorta::net
