#include "server/session.h"

namespace aorta::server {

std::string_view session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kActive: return "active";
    case SessionState::kDraining: return "draining";
    case SessionState::kClosed: return "closed";
  }
  return "?";
}

Session::Session(SessionId id, TenantId tenant, std::size_t mailbox_capacity)
    : id_(id),
      tenant_(std::move(tenant)),
      name_prefix_("s" + std::to_string(id) + "/"),
      mailbox_(mailbox_capacity, aorta::util::OverflowPolicy::kShedOldest) {}

void Session::deliver(Delivery delivery) {
  switch (delivery.kind) {
    case Delivery::Kind::kResult: ++stats_.completed; break;
    case Delivery::Kind::kError: ++stats_.errors; break;
    case Delivery::Kind::kRow: ++stats_.rows; break;
    case Delivery::Kind::kOutcome: ++stats_.outcomes; break;
  }
  // kShedOldest: only a zero-capacity mailbox keeps nothing.
  if (mailbox_.push(std::move(delivery)) && notify_) notify_(mailbox_.back());
}

std::vector<Delivery> Session::drain() {
  std::vector<Delivery> out;
  out.reserve(mailbox_.size());
  while (auto d = mailbox_.pop()) out.push_back(std::move(*d));
  return out;
}

}  // namespace aorta::server
