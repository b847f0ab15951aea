#include "net/rpc.h"

#include "util/logging.h"

namespace aorta::net {

using aorta::util::Result;

namespace {
// Bound on the timed-out id memory: enough to recognise any straggler
// that is still in flight, without growing with total call count.
constexpr std::size_t kTimedOutMemory = 1024;
}  // namespace

RpcClient::~RpcClient() {
  for (const auto& [id, pending] : pending_) {
    (void)network_->loop().cancel(pending.timeout_event);
  }
}

void RpcClient::call(NodeId dst, std::string kind,
                     std::map<std::string, std::string> fields,
                     aorta::util::Duration timeout, RpcCallback callback,
                     std::size_t payload_bytes) {
  std::uint64_t id = next_request_id_++;

  Message msg;
  msg.src = self_;
  msg.dst = std::move(dst);
  msg.kind = std::move(kind);
  msg.fields = std::move(fields);
  msg.request_id = id;
  msg.payload_bytes = payload_bytes;
  msg.is_request = true;

  aorta::util::EventId timeout_event = network_->loop().schedule(
      timeout, [this, id]() {
        auto it = pending_.find(id);
        if (it == pending_.end()) return;  // reply won the race
        Pending pending = std::move(it->second);
        pending_.erase(it);
        ++stats_.timeouts;
        settle_endpoint(pending, /*timed_out=*/true, /*completed=*/false);
        trace_span(pending, "timeout");
        if (timed_out_.size() >= kTimedOutMemory) {
          timed_out_.erase(timed_out_.begin());
        }
        timed_out_.insert(id);
        pending.callback(Result<Message>(aorta::util::timeout_error(
            "rpc request " + std::to_string(id) + " timed out")));
      });

  Pending pending{std::move(callback), timeout_event};
  pending.started = network_->loop().now();
  pending.dst = msg.dst;
  if (AORTA_TRACE_ENABLED(tracer_)) {
    pending.trace_kind = msg.kind;
  }
  RpcEndpointStats& ep = endpoint_stats_[pending.dst];
  ++ep.calls;
  ++ep.in_flight;
  ep.max_in_flight = std::max(ep.max_in_flight, ep.in_flight);
  pending_.emplace(id, std::move(pending));
  network_->send(std::move(msg));
}

void RpcClient::settle_endpoint(const Pending& pending, bool timed_out,
                                bool completed) {
  RpcEndpointStats& ep = endpoint_stats_[pending.dst];
  if (ep.in_flight > 0) --ep.in_flight;
  if (timed_out) ++ep.timeouts;
  if (completed &&
      network_->loop().now() - pending.started > slow_threshold_) {
    ++ep.slow_replies;
    ++stats_.slow_replies;
  }
}

void RpcClient::trace_span(const Pending& pending, const char* outcome) {
  if (pending.trace_kind.empty()) return;  // call predates tracing-on
  AORTA_TRACE_SPAN(tracer_, obs::SpanCat::kRpc, pending.trace_kind,
                   pending.started, network_->loop().now(),
                   pending.dst + " " + outcome);
}

bool RpcClient::on_reply(const Message& msg) {
  // A request is never a reply, even when its id (another client's
  // counter) equals one of ours: a worker's comm node also receives the
  // czar's fragment requests.
  if (msg.request_id == 0 || msg.is_request) return false;
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) {
    // Not pending: either a late reply to a call whose timeout already
    // fired, or not ours at all. Late replies are consumed (a stale
    // reply must not masquerade as a device-initiated push) and counted.
    auto late = timed_out_.find(msg.request_id);
    if (late == timed_out_.end()) return false;
    timed_out_.erase(late);
    ++stats_.late_replies;
    AORTA_LOG(kDebug, "rpc")
        << "late reply from " << msg.src << " for request "
        << msg.request_id << " (already timed out)";
    return true;
  }
  network_->loop().cancel(it->second.timeout_event);
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (msg.kind == "rpc_unreachable") {
    // The network bounced the request: destination offline or detached.
    ++stats_.unreachable;
    settle_endpoint(pending, /*timed_out=*/false, /*completed=*/false);
    trace_span(pending, "unreachable");
    pending.callback(Result<Message>(aorta::util::unavailable_error(
        "device unreachable: " + msg.src)));
    return true;
  }
  ++stats_.completed;
  settle_endpoint(pending, /*timed_out=*/false, /*completed=*/true);
  trace_span(pending, "ok");
  pending.callback(Result<Message>(msg));
  return true;
}

Message make_reply(const Message& request, std::string kind,
                   std::size_t payload_bytes) {
  Message reply;
  reply.src = request.dst;
  reply.dst = request.src;
  reply.kind = std::move(kind);
  reply.request_id = request.request_id;
  reply.payload_bytes = payload_bytes;
  return reply;
}

}  // namespace aorta::net
