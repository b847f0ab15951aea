// ScanBroker: the shared data-acquisition plane of the communication layer.
//
// Section 3.2's scan operators read device tuples from the virtual device
// tables: non-sensory attributes from the registry's static cache, one
// read_attr round trip per needed sensory attribute per device. Run
// privately per query, N co-located queries over the same device table
// pay N full sensory sweeps per epoch — O(N x D) round trips where the
// radio only needs O(D). The broker, the only scan path, turns
// acquisition into a subscription model:
//
//   * AQs (and ad-hoc SELECT scans) register a *subscription* carrying the
//     device type, the set of attributes they actually need (projection
//     pushdown, empty = all) and an epoch period in engine ticks. The
//     names resolve once, at registration, to a mask of schema slots.
//   * Each engine tick the broker finds the due subscriptions per type,
//     ORs their slot masks, and performs ONE batched scan per type — the
//     effective cadence per type is the GCD of the subscriber periods
//     (subscriptions registered at the same tick with the same period
//     share every scan).
//   * A batch walks the type's device table: the type's devices in
//     registry order with their static values by slot, rebuilt only when
//     DeviceRegistry::version() moves. Read outcomes are recorded per
//     (device, slot) in one flat array.
//   * Concurrent in-flight (device, attr) reads are deduplicated: a read
//     issued by an earlier batch (or a one-shot SELECT) that is still in
//     flight is joined, not re-issued.
//   * Successful reads are cached; a batch within the configurable
//     freshness window is served from cache without touching the radio.
//   * The resulting tuple batch is fanned out to every due subscriber,
//     each seeing only its own masked attributes, with the per-query
//     unreachable-device semantics of a private scan preserved: a
//     device whose *needed* sensory reads all failed contributes no row
//     to that subscriber. A batch's only waiter whose mask equals the
//     batch's union takes the master tuples themselves (minus its
//     unreachable devices) instead of a masked copy of each.
//
// Subscription ids are never recycled, so an unsubscribe (drop AQ) while
// a batch is in flight simply drops that subscriber from the fan-out —
// the broker-level analogue of the executor's generation counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "comm/comm_module.h"
#include "comm/tuple.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/event_loop.h"
#include "util/stats.h"

namespace aorta::comm {

// Per-device-type acquisition counters.
struct BrokerTypeStats {
  std::uint64_t batches = 0;          // batched scans performed
  std::uint64_t rpcs_issued = 0;      // sensory read_attr RPCs sent
  std::uint64_t rpcs_coalesced = 0;   // joined an in-flight (device, attr) read
  std::uint64_t cache_hits = 0;       // served within the freshness window
  std::uint64_t read_failures = 0;    // read_attr RPCs that failed / timed out
  std::uint64_t tuples_delivered = 0; // projected tuples handed to subscribers
  std::uint64_t deliveries = 0;       // subscriber/one-shot callbacks fired
  std::uint64_t devices_skipped = 0;  // per-subscriber unreachable devices
  std::uint64_t quarantined_skips = 0; // device-batches skipped by quarantine
  std::uint64_t degraded_reads = 0;   // attrs served last-known-good
  std::uint64_t degraded_tuples = 0;  // delivered tuples carrying the marker
};

class ScanBroker {
 public:
  using SubscriptionId = std::uint64_t;
  // Periodic fan-out callback. `issue_tick` is the broker tick that issued
  // the batch (tick_count() at issue): consumers that multiplex several
  // logical queries over one subscription (the executor's delivery groups)
  // use it to exclude members that joined after the batch left — the
  // analogue of never-recycled subscription ids for intra-subscription
  // membership.
  using BatchCallback =
      std::function<void(const std::vector<Tuple>&, std::uint64_t issue_tick)>;

  struct Options {
    // Sensory values younger than this are served from cache without a new
    // RPC. Zero disables caching (in-flight dedup still applies).
    aorta::util::Duration freshness = aorta::util::Duration::zero();
    // false = ablation baseline: every subscription performs its own
    // private scan per due tick (no union, no dedup, no cache) — the
    // pre-broker O(N x D) behaviour, used by bench_shared_scan.
    bool coalesce = true;
    // Degraded-mode bound: a quarantined device's sensory attrs are served
    // from the last-known-good cache if the cached value is at most this
    // old, and the tuple is tagged degraded. Zero = no degraded serving
    // (quarantined devices simply contribute no rows).
    aorta::util::Duration degraded_staleness = aorta::util::Duration::zero();
  };

  ScanBroker(device::DeviceRegistry* registry, CommLayer* comm,
             aorta::util::EventLoop* loop);
  ScanBroker(device::DeviceRegistry* registry, CommLayer* comm,
             aorta::util::EventLoop* loop, Options options);
  ~ScanBroker();

  ScanBroker(const ScanBroker&) = delete;
  ScanBroker& operator=(const ScanBroker&) = delete;

  // Register a periodic subscription. `on_batch` fires once per due tick
  // with the subscriber's projected tuples. `needed` empty = every
  // attribute; names outside the type's schema select nothing. The phase
  // is fixed at registration (tick_count % period), matching the
  // executor's historic per-AQ phase assignment.
  SubscriptionId subscribe(const device::DeviceTypeId& type,
                           std::set<std::string> needed,
                           std::uint64_t period_ticks, BatchCallback on_batch);

  // Remove a subscription. In-flight batches stop delivering to it.
  void unsubscribe(SubscriptionId id);

  // One-shot acquisition (the SELECT path). Coalesces with any in-flight
  // reads and the freshness cache; `done` fires once with the tuples.
  // `needed` reads as in subscribe().
  void acquire_once(const device::DeviceTypeId& type,
                    std::set<std::string> needed,
                    std::function<void(std::vector<Tuple>)> done);

  // Health supervision tap (nullable = off): quarantined devices receive
  // no sweep RPCs; within Options::degraded_staleness their needed attrs
  // are served from the last-known-good cache and tagged degraded.
  void set_health(const device::HealthView* health) { health_ = health; }

  // Metrics enrollment (nullable = off): publishes the subscriber gauge,
  // the batch latency histogram, and — lazily, as device types first see
  // traffic — every per-type counter under "<prefix>types.<type>.*". The
  // default prefix preserves the historic unsharded layout
  // ("scan_broker.*"); the sharded plane enrolls each worker's broker
  // under an indexed prefix ("shard.<i>.scan_broker.") so N brokers don't
  // collide on one registry.
  void set_metrics(obs::MetricsRegistry* metrics,
                   std::string prefix = "scan_broker.");
  // Span tracing (nullable = off): each batch records a `sweep` span from
  // issue to fan-out.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Delivery epilogue (nullable = off): fires after each batch's fan-out
  // completes — every due waiter served, same virtual time as the last
  // delivery, before the tick barrier advances. The executor processes its
  // staged per-group batches here so side effects (hooks, actions, traces)
  // run in one deterministic registration-order pass per batch.
  void set_delivery_epilogue(std::function<void()> epilogue) {
    delivery_epilogue_ = std::move(epilogue);
  }

  // Batches issued to `id` whose fan-out has not completed yet. A consumer
  // attaching state to an existing subscription uses this to discount
  // deliveries already in flight (they predate the attachment).
  std::uint64_t pending_batches(SubscriptionId id) const;

  // Advance the broker clock one engine epoch and issue one batched scan
  // per device type with due subscribers. `all_delivered` fires once every
  // due subscriber received its batch (synchronously when none are due) —
  // the executor flushes its action operators behind it.
  void tick(std::function<void()> all_delivered);

  // ---- observability -------------------------------------------------------
  std::uint64_t tick_count() const { return tick_count_; }
  std::size_t subscriber_count() const { return subs_.size(); }
  std::size_t subscriber_count(const device::DeviceTypeId& type) const;
  // GCD of the subscriber periods for a type: the effective scan cadence.
  std::uint64_t effective_period_ticks(const device::DeviceTypeId& type) const;
  const std::map<device::DeviceTypeId, BrokerTypeStats>& stats() const {
    return stats_;
  }
  // Sum of every per-type counter (convenience for service-level stats).
  BrokerTypeStats totals() const;
  // Tick-to-fanout latency of completed batches, in simulated ms (exact
  // samples; the bucketed export is enrolled as
  // "<prefix>batch_latency_ms").
  const aorta::util::Summary& batch_latency_ms() const {
    return batch_latency_ms_.summary();
  }

 private:
  // A set of schema slots: one flag per slot of the type's schema, so
  // masks of one type compare and combine slot by slot, at any width.
  using SlotMask = std::vector<bool>;

  struct Subscription {
    device::DeviceTypeId type;
    SlotMask mask;  // the needed attributes' slots, resolved at subscribe
    std::uint64_t period = 1;
    std::uint64_t phase = 0;
    BatchCallback on_batch;
    std::uint64_t pending = 0;  // issued batches not yet fanned out
  };

  // One consumer of a batch: a periodic subscription (validated against
  // subs_ at fan-out) or a one-shot waiter. `mask` selects the slots the
  // consumer sees and the reads its unreachable-device rule weighs.
  struct Waiter {
    SubscriptionId sub = 0;  // 0 = one-shot
    SlotMask mask;
    std::function<void(std::vector<Tuple>)> once;
  };

  struct Batch;
  struct TypeState;

  TypeState& type_state(const device::DeviceTypeId& type);
  // The slots of `type`'s schema that `needed` names (empty = every slot).
  SlotMask slot_mask(const device::DeviceTypeId& type,
                     const std::set<std::string>& needed);

  // Per-type counters, created (and enrolled on the registry) on first use.
  BrokerTypeStats& type_stats(const device::DeviceTypeId& type);
  void enroll_type_stats(const device::DeviceTypeId& type,
                         BrokerTypeStats& stats);

  // Issue one batched acquisition over all devices of `type` for the union
  // of the waiters' masks. `coalesce` selects shared-plane (cache +
  // in-flight dedup) vs private acquisition.
  void run_batch(const device::DeviceTypeId& type, std::vector<Waiter> waiters,
                 bool coalesce, std::shared_ptr<std::size_t> barrier,
                 std::function<void()> barrier_done);

  void finalize_batch(const std::shared_ptr<Batch>& batch);

  device::DeviceRegistry* registry_;
  CommLayer* comm_;
  aorta::util::EventLoop* loop_;
  Options options_;
  const device::HealthView* health_ = nullptr;
  // Prefix-scoped registry view; dead (no-op) until set_metrics. Stored as
  // a scope because per-type counters enroll lazily on first traffic — the
  // prefix must outlive the set_metrics call.
  obs::MetricsRegistry::Scoped metrics_;
  obs::Tracer* tracer_ = nullptr;
  std::function<void()> delivery_epilogue_;

  std::map<device::DeviceTypeId, std::unique_ptr<TypeState>> types_;
  std::map<SubscriptionId, Subscription> subs_;
  std::map<device::DeviceTypeId, BrokerTypeStats> stats_;
  obs::LatencyHistogram batch_latency_ms_;
  SubscriptionId next_sub_id_ = 1;
  std::uint64_t tick_count_ = 0;
  // Shared with completion callbacks queued on the loop: a destroyed
  // broker turns them into no-ops instead of dangling-`this` calls.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace aorta::comm
