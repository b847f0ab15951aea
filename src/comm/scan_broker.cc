#include "comm/scan_broker.h"

#include <numeric>
#include <utility>

#include "util/logging.h"

namespace aorta::comm {

using aorta::util::Result;
using aorta::util::TimePoint;
using device::Value;

// ---------------------------------------------------------------- state

// A cached sensory value with its acquisition time.
struct CachedRead {
  Value value;
  TimePoint at;
};

// An in-flight (device, attr) read other batches can join.
struct InflightRead {
  std::vector<std::function<void(const Result<Value>&)>> joiners;
};

struct ScanBroker::TypeState {
  std::shared_ptr<Schema> schema;
  // Freshness cache and in-flight dedup table, both keyed (device, attr).
  std::map<std::pair<device::DeviceId, std::string>, CachedRead> cache;
  std::map<std::pair<device::DeviceId, std::string>,
           std::shared_ptr<InflightRead>>
      inflight;
};

// Shared bookkeeping for one batched acquisition. Holds shared ownership
// of the schema so tuples stay valid however long completion callbacks
// are queued; never touches the broker after the alive flag drops.
struct ScanBroker::Batch {
  device::DeviceTypeId type;
  std::shared_ptr<Schema> schema;
  std::vector<device::DeviceId> ids;
  std::vector<Tuple> tuples;  // master tuples carrying the attribute union
  // Outcome of every needed sensory read, per device: attr -> ok?
  std::vector<std::map<std::string, bool>> read_ok;
  std::size_t outstanding = 0;  // reads not yet resolved
  bool issued = false;          // all reads dispatched (finalize barrier)
  std::vector<Waiter> waiters;
  TimePoint started;
  std::uint64_t issue_tick = 0;  // tick_count_ when the batch was issued
  // Tick barrier: decremented once per batch of the issuing tick; fires
  // the executor's flush when every due subscriber has been served.
  std::shared_ptr<std::size_t> barrier;
  std::function<void()> barrier_done;
};

// ---------------------------------------------------------------- broker

ScanBroker::ScanBroker(device::DeviceRegistry* registry, CommLayer* comm,
                       aorta::util::EventLoop* loop)
    : ScanBroker(registry, comm, loop, Options()) {}

ScanBroker::ScanBroker(device::DeviceRegistry* registry, CommLayer* comm,
                       aorta::util::EventLoop* loop, Options options)
    : registry_(registry), comm_(comm), loop_(loop), options_(options) {}

ScanBroker::~ScanBroker() { *alive_ = false; }

ScanBroker::TypeState& ScanBroker::type_state(
    const device::DeviceTypeId& type) {
  auto it = types_.find(type);
  if (it == types_.end()) {
    auto state = std::make_unique<TypeState>();
    const device::DeviceTypeInfo* info = registry_->type_info(type);
    state->schema = std::make_shared<Schema>(
        info != nullptr ? Schema::from_catalog(info->catalog) : Schema());
    it = types_.emplace(type, std::move(state)).first;
  }
  return *it->second;
}

void ScanBroker::set_metrics(obs::MetricsRegistry* metrics,
                             std::string prefix) {
  metrics_ = obs::MetricsRegistry::Scoped(metrics, std::move(prefix));
  if (!metrics_.live()) return;
  metrics_.enroll_gauge("subscribers", [this]() {
    return static_cast<std::int64_t>(subs_.size());
  });
  metrics_.enroll_histogram("batch_latency_ms", &batch_latency_ms_);
  for (auto& [type, stats] : stats_) enroll_type_stats(type, stats);
}

BrokerTypeStats& ScanBroker::type_stats(
    const device::DeviceTypeId& type) {
  auto it = stats_.find(type);
  if (it == stats_.end()) {
    it = stats_.emplace(type, BrokerTypeStats{}).first;
    if (metrics_.live()) enroll_type_stats(type, it->second);
  }
  return it->second;
}

void ScanBroker::enroll_type_stats(const device::DeviceTypeId& type,
                                   BrokerTypeStats& stats) {
  std::string prefix =
      "types." + obs::MetricsRegistry::sanitize_component(type) + ".";
  metrics_.enroll_counter(prefix + "batches", &stats.batches);
  metrics_.enroll_counter(prefix + "rpcs_issued", &stats.rpcs_issued);
  metrics_.enroll_counter(prefix + "rpcs_coalesced", &stats.rpcs_coalesced);
  metrics_.enroll_counter(prefix + "cache_hits", &stats.cache_hits);
  metrics_.enroll_counter(prefix + "read_failures", &stats.read_failures);
  metrics_.enroll_counter(prefix + "tuples_delivered",
                          &stats.tuples_delivered);
  metrics_.enroll_counter(prefix + "deliveries", &stats.deliveries);
  metrics_.enroll_counter(prefix + "devices_skipped", &stats.devices_skipped);
  metrics_.enroll_counter(prefix + "quarantined_skips",
                          &stats.quarantined_skips);
  metrics_.enroll_counter(prefix + "degraded_reads", &stats.degraded_reads);
  metrics_.enroll_counter(prefix + "degraded_tuples", &stats.degraded_tuples);
  metrics_.enroll_gauge(prefix + "subscribers", [this, type]() {
    return static_cast<std::int64_t>(subscriber_count(type));
  });
}

ScanBroker::SubscriptionId ScanBroker::subscribe(
    const device::DeviceTypeId& type, std::set<std::string> needed,
    std::uint64_t period_ticks, BatchCallback on_batch) {
  SubscriptionId id = next_sub_id_++;
  Subscription sub;
  sub.type = type;
  sub.needed = std::move(needed);
  sub.period = std::max<std::uint64_t>(1, period_ticks);
  sub.phase = tick_count_ % sub.period;
  sub.on_batch = std::move(on_batch);
  subs_.emplace(id, std::move(sub));
  return id;
}

void ScanBroker::unsubscribe(SubscriptionId id) { subs_.erase(id); }

std::uint64_t ScanBroker::pending_batches(SubscriptionId id) const {
  auto it = subs_.find(id);
  return it == subs_.end() ? 0 : it->second.pending;
}

std::size_t ScanBroker::subscriber_count(
    const device::DeviceTypeId& type) const {
  std::size_t n = 0;
  for (const auto& [id, sub] : subs_) {
    if (sub.type == type) ++n;
  }
  return n;
}

std::uint64_t ScanBroker::effective_period_ticks(
    const device::DeviceTypeId& type) const {
  std::uint64_t g = 0;
  for (const auto& [id, sub] : subs_) {
    if (sub.type == type) g = std::gcd(g, sub.period);
  }
  return g;
}

BrokerTypeStats ScanBroker::totals() const {
  BrokerTypeStats t;
  for (const auto& [type, s] : stats_) {
    t.batches += s.batches;
    t.rpcs_issued += s.rpcs_issued;
    t.rpcs_coalesced += s.rpcs_coalesced;
    t.cache_hits += s.cache_hits;
    t.read_failures += s.read_failures;
    t.tuples_delivered += s.tuples_delivered;
    t.deliveries += s.deliveries;
    t.devices_skipped += s.devices_skipped;
    t.quarantined_skips += s.quarantined_skips;
    t.degraded_reads += s.degraded_reads;
    t.degraded_tuples += s.degraded_tuples;
  }
  return t;
}

void ScanBroker::acquire_once(const device::DeviceTypeId& type,
                              std::set<std::string> needed,
                              std::function<void(std::vector<Tuple>)> done) {
  Waiter w;
  w.needed = std::move(needed);
  w.once = std::move(done);
  run_batch(type, {std::move(w)}, options_.coalesce, nullptr, {});
}

void ScanBroker::tick(std::function<void()> all_delivered) {
  ++tick_count_;

  // Group the due subscriptions by device type. Map iteration orders both
  // groupings by key, so the batch/RPC sequence is deterministic.
  std::map<device::DeviceTypeId, std::vector<Waiter>> due;
  for (auto& [id, sub] : subs_) {
    if ((tick_count_ - 1) % sub.period != sub.phase) continue;
    ++sub.pending;
    Waiter w;
    w.sub = id;
    w.needed = sub.needed;
    due[sub.type].push_back(std::move(w));
  }

  // Count batches this tick so all_delivered fires exactly once, after the
  // last fan-out (+1 sentinel covers the no-due-subscribers case).
  std::size_t batches = 0;
  if (options_.coalesce) {
    batches = due.size();
  } else {
    for (const auto& [type, waiters] : due) batches += waiters.size();
  }
  auto barrier = std::make_shared<std::size_t>(batches + 1);
  auto barrier_done = [all_delivered = std::move(all_delivered)]() {
    if (all_delivered) all_delivered();
  };

  for (auto& [type, waiters] : due) {
    if (options_.coalesce) {
      // One shared scan per type with the union of due needs.
      run_batch(type, std::move(waiters), /*coalesce=*/true, barrier,
                barrier_done);
    } else {
      // Ablation baseline: one private scan per due subscription.
      for (Waiter& w : waiters) {
        run_batch(type, {std::move(w)}, /*coalesce=*/false, barrier,
                  barrier_done);
      }
    }
  }
  if (--*barrier == 0) barrier_done();  // release the sentinel
}

void ScanBroker::run_batch(const device::DeviceTypeId& type,
                           std::vector<Waiter> waiters, bool coalesce,
                           std::shared_ptr<std::size_t> barrier,
                           std::function<void()> barrier_done) {
  TypeState& state = type_state(type);
  BrokerTypeStats& stats = type_stats(type);
  ++stats.batches;

  auto batch = std::make_shared<Batch>();
  batch->type = type;
  batch->schema = state.schema;
  batch->waiters = std::move(waiters);
  batch->started = loop_->now();
  batch->issue_tick = tick_count_;
  batch->barrier = std::move(barrier);
  batch->barrier_done = std::move(barrier_done);

  std::vector<device::Device*> devices = registry_->devices_of_type(type);
  batch->ids.reserve(devices.size());
  for (device::Device* d : devices) batch->ids.push_back(d->id());
  batch->tuples.resize(batch->ids.size());
  batch->read_ok.resize(batch->ids.size());

  // Union of the waiters' needed attributes (any empty set = all).
  std::set<std::string> needed;
  bool all = false;
  for (const Waiter& w : batch->waiters) {
    if (w.needed.empty()) all = true;
    needed.insert(w.needed.begin(), w.needed.end());
  }
  auto needs = [&](const std::string& attr) {
    return all || needed.count(attr) > 0;
  };

  CommModule* module = comm_->module_for(type);
  TimePoint now = loop_->now();

  for (std::size_t d = 0; d < batch->ids.size(); ++d) {
    const device::DeviceId& id = batch->ids[d];
    Tuple tuple(batch->schema.get(), id);

    // Non-sensory fields come straight from the registry cache.
    if (const auto* cached = registry_->static_attrs(id)) {
      for (const Field& f : batch->schema->fields()) {
        if (f.sensory || !needs(f.name)) continue;
        auto it = cached->find(f.name);
        if (it != cached->end()) tuple.set_by_name(f.name, it->second);
      }
    }
    batch->tuples[d] = std::move(tuple);

    // Quarantined devices get no sweep traffic at all: their needed
    // sensory attrs are served last-known-good within the staleness bound
    // (and the tuple tagged degraded), or recorded as failed reads so the
    // per-subscriber unreachable rule applies — without an RPC either way.
    if (health_ != nullptr && health_->is_quarantined(id)) {
      ++stats.quarantined_skips;
      batch->tuples[d].set_degraded(true);
      for (const Field& f : batch->schema->fields()) {
        if (!f.sensory || !needs(f.name)) continue;
        auto key = std::make_pair(id, f.name);
        auto hit = state.cache.find(key);
        if (options_.degraded_staleness > aorta::util::Duration::zero() &&
            hit != state.cache.end() &&
            now - hit->second.at <= options_.degraded_staleness) {
          batch->tuples[d].set_by_name(f.name, hit->second.value);
          batch->read_ok[d][f.name] = true;
          ++stats.degraded_reads;
        } else {
          batch->read_ok[d][f.name] = false;
        }
      }
      continue;
    }

    // Needed sensory fields: freshness cache, then in-flight dedup, then
    // a live read_attr round trip.
    for (const Field& f : batch->schema->fields()) {
      if (!f.sensory || !needs(f.name) || module == nullptr) continue;
      auto key = std::make_pair(id, f.name);

      if (coalesce && options_.freshness > aorta::util::Duration::zero()) {
        auto hit = state.cache.find(key);
        if (hit != state.cache.end() &&
            now - hit->second.at < options_.freshness) {
          batch->tuples[d].set_by_name(f.name, hit->second.value);
          batch->read_ok[d][f.name] = true;
          ++stats.cache_hits;
          continue;
        }
      }

      ++batch->outstanding;
      auto alive = alive_;
      auto on_value = [this, alive, batch, d, name = f.name,
                       type](const Result<Value>& value) {
        if (value.is_ok()) {
          batch->tuples[d].set_by_name(name, value.value());
          batch->read_ok[d][name] = true;
        } else {
          batch->read_ok[d][name] = false;
          if (*alive) ++type_stats(type).read_failures;
        }
        --batch->outstanding;
        if (*alive) finalize_batch(batch);
      };

      if (coalesce) {
        auto flying = state.inflight.find(key);
        if (flying != state.inflight.end()) {
          flying->second->joiners.push_back(std::move(on_value));
          ++stats.rpcs_coalesced;
          continue;
        }
        auto entry = std::make_shared<InflightRead>();
        entry->joiners.push_back(std::move(on_value));
        state.inflight.emplace(key, entry);
        ++stats.rpcs_issued;
        module->read_attr(id, f.name,
                          [this, alive, entry, key, type](Result<Value> value) {
                            if (*alive) {
                              TypeState& st = type_state(type);
                              st.inflight.erase(key);
                              if (value.is_ok()) {
                                st.cache[key] =
                                    CachedRead{value.value(), loop_->now()};
                              }
                            }
                            for (auto& joiner : entry->joiners) joiner(value);
                          });
      } else {
        ++stats.rpcs_issued;
        module->read_attr(id, f.name, std::move(on_value));
      }
    }
  }

  batch->issued = true;
  finalize_batch(batch);
}

void ScanBroker::finalize_batch(const std::shared_ptr<Batch>& batch) {
  if (!batch->issued || batch->outstanding > 0) return;
  BrokerTypeStats& stats = type_stats(batch->type);
  batch_latency_ms_.add((loop_->now() - batch->started).to_millis());
  AORTA_TRACE_SPAN(tracer_, obs::SpanCat::kSweep, "sweep:" + batch->type,
                   batch->started, loop_->now(),
                   std::to_string(batch->ids.size()) + " device(s), " +
                       std::to_string(batch->waiters.size()) + " waiter(s)");

  for (Waiter& w : batch->waiters) {
    BatchCallback periodic;
    if (w.sub != 0) {
      // Validate the subscription still exists: drop-AQ between scan issue
      // and completion removes it, and ids are never recycled, so a stale
      // batch can never feed a re-registered subscriber. Copy the callback
      // so it survives the subscriber unsubscribing from inside it.
      auto it = subs_.find(w.sub);
      if (it == subs_.end()) continue;
      if (it->second.pending > 0) --it->second.pending;
      periodic = it->second.on_batch;
    }

    // Project the master tuples down to this waiter's needed attributes,
    // applying the per-subscriber unreachable-device rule.
    std::vector<Tuple> out;
    out.reserve(batch->tuples.size());
    for (std::size_t d = 0; d < batch->tuples.size(); ++d) {
      bool any_attempt = false;
      bool any_success = false;
      for (const auto& [attr, ok] : batch->read_ok[d]) {
        if (!w.needed.empty() && w.needed.count(attr) == 0) continue;
        any_attempt = true;
        if (ok) any_success = true;
      }
      if (any_attempt && !any_success) {
        ++stats.devices_skipped;
        continue;  // unreachable for this subscriber: no row
      }
      Tuple t(batch->schema.get(), batch->ids[d]);
      for (std::size_t i = 0; i < batch->schema->size(); ++i) {
        const Field& f = batch->schema->fields()[i];
        if (!w.needed.empty() && w.needed.count(f.name) == 0) continue;
        t.set(i, batch->tuples[d].at(i));
      }
      t.set_degraded(batch->tuples[d].degraded());
      if (t.degraded()) ++stats.degraded_tuples;
      out.push_back(std::move(t));
    }

    stats.tuples_delivered += out.size();
    ++stats.deliveries;
    if (periodic) {
      periodic(out, batch->issue_tick);
    } else if (w.once) {
      w.once(std::move(out));
    }
  }
  batch->waiters.clear();

  // Let staged consumers (the executor's delivery groups) process this
  // batch's fan-out in one pass at the same virtual time, before the tick
  // barrier can fire the executor's flush.
  if (delivery_epilogue_) delivery_epilogue_();

  if (batch->barrier != nullptr && --*batch->barrier == 0) {
    batch->barrier_done();
  }
}

}  // namespace aorta::comm
