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

// Outcome of one needed sensory read within a batch.
enum class ReadOutcome : std::uint8_t { kNone, kFailed, kOk };

// One device of a type's table: its id, its static values by slot (NULL
// in sensory slots and where the registry caches no value) and whether
// health supervision has it quarantined.
struct DeviceRow {
  device::DeviceId id;
  std::vector<Value> statics;
  bool quarantined = false;
};

struct ScanBroker::TypeState {
  std::shared_ptr<Schema> schema;
  // The type's devices in registry order, as of registry version
  // `devices_version`, and their quarantine flags, as of `health`'s
  // version `health_version` (kNever until first built).
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<DeviceRow> devices;
  std::uint64_t devices_version = kNever;
  const device::HealthView* health = nullptr;
  std::uint64_t health_version = kNever;
  // Tuple blocks of finished batches, which the next batches reset in
  // place instead of building one Tuple per device (at most kSpareBlocks).
  static constexpr std::size_t kSpareBlocks = 8;
  std::vector<std::vector<Tuple>> spare;
  // Freshness cache and in-flight dedup table, both keyed (device, attr).
  std::map<std::pair<device::DeviceId, std::string>, CachedRead> cache;
  std::map<std::pair<device::DeviceId, std::string>,
           std::shared_ptr<InflightRead>>
      inflight;

  // Rebuild the device table if the registry's membership moved since,
  // and the quarantine flags if that or the health view's version moved.
  void refresh_devices(const device::DeviceRegistry& registry,
                       const device::DeviceTypeId& type,
                       const device::HealthView* view) {
    if (devices_version != registry.version()) {
      devices_version = registry.version();
      health_version = kNever;
      devices.clear();
      for (device::DeviceId& id : registry.ids_of_type(type)) {
        DeviceRow row;
        row.statics.resize(schema->size());
        if (const auto* cached = registry.static_attrs(id)) {
          for (std::size_t slot = 0; slot < schema->size(); ++slot) {
            const Field& f = schema->fields()[slot];
            if (f.sensory) continue;
            auto it = cached->find(f.name);
            if (it != cached->end()) row.statics[slot] = it->second;
          }
        }
        row.id = std::move(id);
        devices.push_back(std::move(row));
      }
    }
    const std::uint64_t version = view == nullptr ? 0 : view->version();
    if (view == health && version == health_version) return;
    health = view;
    health_version = version;
    for (DeviceRow& row : devices) {
      row.quarantined = view != nullptr && view->is_quarantined(row.id);
    }
  }

  // A block of `size` tuples for a batch: a finished batch's, or a new one.
  // The caller resets each tuple before use.
  std::vector<Tuple> take_block(std::size_t size) {
    std::vector<Tuple> block;
    if (!spare.empty()) {
      block = std::move(spare.back());
      spare.pop_back();
    }
    block.resize(size);
    return block;
  }
  void give_back(std::vector<Tuple> block) {
    if (spare.size() < kSpareBlocks) spare.push_back(std::move(block));
  }
};

// Shared bookkeeping for one batched acquisition. Holds shared ownership
// of the schema so tuples stay valid however long completion callbacks
// are queued; never touches the broker after the alive flag drops.
struct ScanBroker::Batch {
  device::DeviceTypeId type;
  TypeState* state = nullptr;  // the type's table and spare blocks
  std::shared_ptr<Schema> schema;
  SlotMask want;              // union of the waiters' masks
  std::vector<Tuple> tuples;  // master tuples carrying the union
  // Outcome of every needed sensory read, flat by (device, slot):
  // reads[d * schema->size() + slot]. Empty when the union names no
  // sensory slot.
  std::vector<ReadOutcome> reads;
  std::size_t outstanding = 0;  // reads not yet resolved
  bool issued = false;          // all reads dispatched (finalize barrier)
  std::vector<Waiter> waiters;
  TimePoint started;
  std::uint64_t issue_tick = 0;  // tick_count_ when the batch was issued
  // Tick barrier: decremented once per batch of the issuing tick; fires
  // the executor's flush when every due subscriber has been served.
  std::shared_ptr<std::size_t> barrier;
  std::function<void()> barrier_done;

  ReadOutcome& read(std::size_t d, std::size_t slot) {
    return reads[d * schema->size() + slot];
  }

  // A private scan's unreachable rule, per waiter: the device is skipped
  // when at least one of the waiter's sensory reads was attempted and
  // every one of them failed.
  bool unreachable(std::size_t d, const SlotMask& mask) const {
    if (reads.empty()) return false;
    const std::size_t width = schema->size();
    bool attempted = false;
    for (std::size_t slot = 0; slot < width; ++slot) {
      const ReadOutcome r = reads[d * width + slot];
      if (r == ReadOutcome::kNone || !mask[slot]) continue;
      if (r == ReadOutcome::kOk) return false;
      attempted = true;
    }
    return attempted;
  }
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

ScanBroker::SlotMask ScanBroker::slot_mask(
    const device::DeviceTypeId& type, const std::set<std::string>& needed) {
  const Schema& schema = *type_state(type).schema;
  SlotMask mask(schema.size());
  for (std::size_t slot = 0; slot < schema.size(); ++slot) {
    mask[slot] = needed.empty() || needed.count(schema.fields()[slot].name) > 0;
  }
  return mask;
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
  sub.mask = slot_mask(type, needed);
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
                              const std::set<std::string>& needed,
                              OnceCallback done) {
  std::vector<Waiter> waiters(1);
  waiters[0].mask = slot_mask(type, needed);
  waiters[0].once = std::move(done);
  run_batch(type, std::move(waiters), options_.coalesce, nullptr, {});
}

void ScanBroker::tick(std::function<void()> all_delivered) {
  ++tick_count_;

  // Group the due subscriptions by device type. Map iteration orders both
  // groupings by key, so the batch/RPC sequence is deterministic.
  std::map<device::DeviceTypeId, std::vector<Waiter>> due;
  for (auto& [id, sub] : subs_) {
    if ((tick_count_ - 1) % sub.period != sub.phase) continue;
    ++sub.pending;
    Waiter& w = due[sub.type].emplace_back();
    w.sub = id;
    w.mask = sub.mask;
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
        std::vector<Waiter> one(1);
        one[0] = std::move(w);
        run_batch(type, std::move(one), /*coalesce=*/false, barrier,
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
  state.refresh_devices(*registry_, type, health_);
  BrokerTypeStats& stats = type_stats(type);
  ++stats.batches;

  auto batch = std::make_shared<Batch>();
  batch->type = type;
  batch->state = &state;
  batch->schema = state.schema;
  batch->waiters = std::move(waiters);
  batch->started = loop_->now();
  batch->issue_tick = tick_count_;
  batch->barrier = std::move(barrier);
  batch->barrier_done = std::move(barrier_done);

  const std::vector<Field>& fields = state.schema->fields();
  const std::size_t width = fields.size();
  // Union of the waiters' masks: the slots this batch acquires.
  SlotMask& want = batch->want;
  want.assign(width, false);
  for (const Waiter& w : batch->waiters) {
    for (std::size_t slot = 0; slot < width; ++slot) {
      if (w.mask[slot]) want[slot] = true;
    }
  }
  for (std::size_t slot = 0; slot < width; ++slot) {
    if (fields[slot].sensory && want[slot]) {
      batch->reads.assign(state.devices.size() * width, ReadOutcome::kNone);
      break;
    }
  }

  CommModule* module = comm_->module_for(type);
  TimePoint now = loop_->now();

  batch->tuples = state.take_block(state.devices.size());
  for (std::size_t d = 0; d < state.devices.size(); ++d) {
    const DeviceRow& row = state.devices[d];
    const device::DeviceId& id = row.id;

    // Non-sensory fields come straight from the device table.
    Tuple& tuple = batch->tuples[d];
    tuple.reset(batch->schema.get(), id);
    for (std::size_t slot = 0; slot < width; ++slot) {
      if (!fields[slot].sensory && want[slot]) {
        tuple.set(slot, row.statics[slot]);
      }
    }

    // Quarantined devices get no sweep traffic at all: their needed
    // sensory attrs are served last-known-good within the staleness bound
    // (and the tuple tagged degraded), or recorded as failed reads so the
    // per-subscriber unreachable rule applies — without an RPC either way.
    if (row.quarantined) {
      ++stats.quarantined_skips;
      tuple.set_degraded(true);
      for (std::size_t slot = 0; slot < width; ++slot) {
        if (!fields[slot].sensory || !want[slot]) continue;
        auto hit = state.cache.find(std::make_pair(id, fields[slot].name));
        if (options_.degraded_staleness > aorta::util::Duration::zero() &&
            hit != state.cache.end() &&
            now - hit->second.at <= options_.degraded_staleness) {
          tuple.set(slot, hit->second.value);
          batch->read(d, slot) = ReadOutcome::kOk;
          ++stats.degraded_reads;
        } else {
          batch->read(d, slot) = ReadOutcome::kFailed;
        }
      }
      continue;
    }

    // Needed sensory fields: freshness cache, then in-flight dedup, then
    // a live read_attr round trip.
    for (std::size_t slot = 0; slot < width; ++slot) {
      const Field& f = fields[slot];
      if (!f.sensory || !want[slot] || module == nullptr) continue;
      auto key = std::make_pair(id, f.name);

      if (coalesce && options_.freshness > aorta::util::Duration::zero()) {
        auto hit = state.cache.find(key);
        if (hit != state.cache.end() &&
            now - hit->second.at < options_.freshness) {
          batch->tuples[d].set(slot, hit->second.value);
          batch->read(d, slot) = ReadOutcome::kOk;
          ++stats.cache_hits;
          continue;
        }
      }

      ++batch->outstanding;
      auto alive = alive_;
      auto on_value = [this, alive, batch, d, slot](const Result<Value>& value) {
        if (value.is_ok()) {
          batch->tuples[d].set(slot, value.value());
          batch->read(d, slot) = ReadOutcome::kOk;
        } else {
          batch->read(d, slot) = ReadOutcome::kFailed;
          if (*alive) ++type_stats(batch->type).read_failures;
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
                   std::to_string(batch->tuples.size()) + " device(s), " +
                       std::to_string(batch->waiters.size()) + " waiter(s)");

  // A lone waiter that wants exactly the batch's union would get a masked
  // copy equal to the master tuples: hand it the master tuples instead.
  const bool hand_over = batch->waiters.size() == 1 &&
                         batch->waiters.front().mask == batch->want;
  const Schema* schema = batch->schema.get();
  std::vector<Tuple>& master = batch->tuples;
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

    // Mask the master tuples down to this waiter's slots, applying the
    // per-subscriber unreachable-device rule. A masked copy is a spare
    // block too, given back once the waiter has read it.
    std::vector<Tuple> copy;
    if (hand_over) {
      std::size_t kept = 0;
      for (std::size_t d = 0; d < master.size(); ++d) {
        if (batch->unreachable(d, w.mask)) continue;
        if (kept != d) master[kept] = std::move(master[d]);
        ++kept;
      }
      stats.devices_skipped += master.size() - kept;
      master.erase(master.begin() + kept, master.end());
    } else {
      copy = batch->state->take_block(master.size());
      std::size_t kept = 0;
      for (std::size_t d = 0; d < master.size(); ++d) {
        if (batch->unreachable(d, w.mask)) {
          ++stats.devices_skipped;
          continue;  // unreachable for this subscriber: no row
        }
        const Tuple& from = master[d];
        Tuple& t = copy[kept++];
        t.reset(schema, from.source_device());
        for (std::size_t slot = 0; slot < schema->size(); ++slot) {
          if (w.mask[slot]) t.set(slot, from.at(slot));
        }
        t.set_degraded(from.degraded());
      }
      copy.resize(kept);
    }
    const std::vector<Tuple>& out = hand_over ? master : copy;
    for (const Tuple& t : out) {
      if (t.degraded()) ++stats.degraded_tuples;
    }

    stats.tuples_delivered += out.size();
    ++stats.deliveries;
    if (periodic) {
      periodic(out, batch->issue_tick);
    } else if (w.once) {
      w.once(out);
    }
    if (!hand_over) batch->state->give_back(std::move(copy));
  }
  batch->waiters.clear();
  // Every waiter has read the master tuples: the next batch resets them.
  batch->state->give_back(std::move(master));

  // Let staged consumers (the executor's delivery groups) process this
  // batch's fan-out in one pass at the same virtual time, before the tick
  // barrier can fire the executor's flush.
  if (delivery_epilogue_) delivery_epilogue_();

  if (batch->barrier != nullptr && --*batch->barrier == 0) {
    batch->barrier_done();
  }
}

}  // namespace aorta::comm
