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
}  // namespace

void ReliableCall::call(NodeId dst, std::string kind,
                        std::map<std::string, std::string> fields,
                        RpcCallback callback, std::size_t payload_bytes) {
  ++stats_.calls;
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
  // Any reply — including an application-level error — ends the call.
  if (result.is_ok()) {
    call->callback(std::move(result));
    return;
  }
  if (call->attempt >= max_attempts_) {
    ++stats_.giveups;
    call->callback(std::move(result));
    return;
  }
  if (!take_retry_token(call->dst)) {
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

bool ReliableCall::take_retry_token(const NodeId& dst) {
  const TimePoint now = loop_->now();
  Budget& b = budgets_.try_emplace(dst, Budget{kRetryBudget, now}).first->second;
  const double elapsed_s = (now - b.last_refill).to_seconds();
  b.tokens = std::min(kRetryBudget, b.tokens + elapsed_s * kRetryRefillPerS);
  b.last_refill = now;
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

}  // namespace aorta::net
