// Aorta: the public facade of the pervasive query processing framework.
//
// Assembles the whole stack from Section 2.1's architecture:
//   declarative interface (exec / SQL)          <- top layer
//   action-oriented query engine (src/query)    <- middle layer
//   uniform data communication layer (src/comm) <- bottom layer
// on top of the simulated device network (src/net, src/devices) that
// replaces the paper's physical pervasive lab. Aorta keeps the runtime
// (LoopGroup and fabric), the metrics registry, the virtual files and the
// statement front end; the two lower layers are its host slice, one
// core::Engine on the control loop (core/engine.h), whose components the
// accessors below forward to. The sharded plane builds one more slice per
// worker through the same class.
//
// Typical use:
//   aorta::core::Aorta sys(aorta::core::Config{});
//   sys.add_camera("cam1", "192.168.0.90", {{0, 0, 3}, 0.0});
//   sys.add_mote("mote1", {4, 2, 1});
//   sys.exec("CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, 'photos/admin') "
//            "FROM sensor s, camera c "
//            "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
//   sys.run_for(aorta::util::Duration::minutes(10));
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "net/fabric.h"
#include "query/parser.h"
#include "util/loop_group.h"

namespace aorta::core {

struct Config {
  std::uint64_t seed = 42;
  aorta::util::Duration epoch = aorta::util::Duration::seconds(1.0);
  // One of the Section 6.3 algorithms: LERFA+SRFE, SRFAE, LS, SA, RANDOM.
  std::string scheduler = "SRFAE";
  // Device synchronization switches (Section 6.2's ablation).
  bool use_probing = true;
  bool use_locks = true;
  // Failover: how many times a failed action request is rescheduled on its
  // remaining candidate devices.
  int max_retries = 1;
  // Shared data-acquisition plane (comm::ScanBroker). When on, broker
  // subscriptions over the same device table share one batched sensory
  // sweep per epoch and concurrent (device, attr) reads are deduplicated;
  // off gives every subscription its own private scan (the pre-broker
  // baseline, bench_shared_scan's ablation arm). AQs of one delivery group
  // share a single subscription either way.
  bool shared_scans = true;
  // Sensory values younger than this are served from the broker's cache
  // instead of a new radio round trip. Zero disables caching (in-flight
  // dedup still applies).
  aorta::util::Duration scan_freshness = aorta::util::Duration::zero();
  // Predicate-index matching (query/predicate_index.h): registered AQs'
  // compiled event predicates are indexed per delivery group so each swept
  // tuple evaluates only candidate queries — sub-linear in the AQ count.
  // false skips the index probe: AQs join the same delivery groups with no
  // index constraint and every member runs its programs on every tuple
  // (same subscriptions, byte-identical output; the ablation arm of
  // bench_eval's matching sweep).
  bool predicate_index = true;
  // Shared-aggregate cache (query/agg_cache.h): continuous aggregate AQs
  // with the same canonical query hash (normalized predicates + window
  // shape, GROUP BY excluded) share one broker subscription and one
  // incremental window accumulation, so N co-hashed dashboard tenants pay
  // one evaluation per tuple instead of N. false reverts to a private
  // cache entry per AQ (byte-identical output; bench_agg_cache's ablation
  // arm).
  bool aggregate_cache = true;
  // Device health supervision: per-device Healthy/Suspect/Quarantined
  // state machine fed by read/probe/action outcomes. Quarantined devices
  // are skipped by broker sweeps and action scheduling and re-probed with
  // capped exponential backoff instead of every epoch.
  bool health_supervision = true;
  HealthOptions health;
  // Degraded-mode results: a quarantined device's sensory attrs are served
  // last-known-good up to this age, with the tuples (and their rows and
  // server deliveries) tagged degraded. Zero disables degraded serving.
  aorta::util::Duration degraded_staleness = aorta::util::Duration::seconds(30.0);
  // Per-query span tracing (src/obs): when on, pipeline stages record
  // virtual-time spans into a ring buffer of `trace_capacity` spans,
  // exportable as Chrome trace-event JSON (Aorta::tracer()). Off by
  // default: instrumentation sites then cost one branch.
  bool tracing = false;
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
  // Parallel deterministic runtime (DESIGN.md §12). `runtime_threads` is
  // the number of OS threads driving the per-shard event loops between
  // epoch barriers: 1 keeps the barrier schedule but runs loops serially
  // (still byte-identical to any other thread count); 0 means hardware
  // concurrency. With no worker loops (unsharded) the group degenerates to
  // the single global loop regardless of this setting.
  int runtime_threads = 1;
  // Reliable backplane (DESIGN.md §14): czar->worker fragment RPCs retry
  // with capped exponential backoff behind per-peer budgets and circuit
  // breakers; workers dedup requests by idempotency key and retain
  // sequenced result messages for NACK-driven retransmission until the
  // czar acks them. false is the chaos benches' ablation arm: the same
  // protocol with one attempt per RPC and zero replay retention, so acks,
  // NACKs and dedup still run but a stream gap can never be repaired.
  bool reliable_backplane = true;
};

// Result of exec(): DDL statements return a message; SELECT returns rows.
struct ExecResult {
  std::string message;
  std::vector<query::Row> rows;
  // Sharded one-shot SELECTs: how many shards contributed a partial out of
  // how many exist. answered < total marks a partial result (some shard
  // timed out or was down). -1/-1 everywhere else (unsharded, DDL).
  int shards_answered = -1;
  int shards_total = -1;
};

// Session-scoped execution options for the multi-tenant service layer
// (src/server). `name_prefix` isolates a session's AQ namespace (CREATE AQ
// and DROP AQ names are prefixed before reaching the executor); `owner`
// tags the registered query; `on_row` receives its continuous rows, each
// handed over by value (a hook that keeps a row moves it; one declared
// with a `const query::TimestampedRow&` parameter binds as well).
struct ExecOptions {
  std::string owner;
  std::string name_prefix;
  std::function<void(const std::string& query, query::TimestampedRow row)>
      on_row;
};

struct SystemStats {
  sync::LockStats locks;
  sync::ProbeStats probes;
  net::NetworkStats network;
  net::RpcStats rpc;
};

class Aorta {
 public:
  explicit Aorta(Config config);
  ~Aorta();

  Aorta(const Aorta&) = delete;
  Aorta& operator=(const Aorta&) = delete;

  // ---- world building ----------------------------------------------------
  // Devices join the host slice (see Engine for the parameters).
  aorta::util::Status add_camera(const device::DeviceId& id, std::string ip,
                                 devices::CameraPose pose,
                                 double range_m = 25.0) {
    return host_->add_camera(id, std::move(ip), pose, range_m);
  }
  aorta::util::Status add_mote(const device::DeviceId& id,
                               device::Location loc, int hops = 1) {
    return host_->add_mote(id, loc, hops);
  }
  aorta::util::Status add_phone(const device::DeviceId& id,
                                std::string phone_no, device::Location loc) {
    return host_->add_phone(id, std::move(phone_no), loc);
  }
  aorta::util::Status remove_device(const device::DeviceId& id) {
    return registry().remove(id);
  }
  devices::PtzCamera* camera(const device::DeviceId& id) {
    return host_->camera(id);
  }
  devices::Mica2Mote* mote(const device::DeviceId& id) {
    return host_->mote(id);
  }
  devices::MmsPhone* phone(const device::DeviceId& id) {
    return host_->phone(id);
  }

  // ---- declarative interface ----------------------------------------------
  // Execute one statement: CREATE ACTION / CREATE AQ / SELECT / DROP AQ.
  // SELECT runs the simulation until its tuples are acquired.
  aorta::util::Result<ExecResult> exec(const std::string& sql);

  // Asynchronous variant: DDL completes before returning; a one-shot
  // SELECT completes once enough simulated time has passed for tuple
  // acquisition (the caller keeps the event loop moving). `done` is
  // invoked exactly once. The text form parses and forwards; the service
  // layer, which parsed the statement at submit, hands over the statement
  // and the text it came from.
  void exec_async(const std::string& sql, ExecOptions options,
                  std::function<void(aorta::util::Result<ExecResult>)> done);
  void exec_async(query::Statement stmt, const std::string& sql,
                  ExecOptions options,
                  std::function<void(aorta::util::Result<ExecResult>)> done);

  // Bind the implementation of a user-defined action registered via
  // CREATE ACTION (this reproduction's stand-in for loading the DLL).
  aorta::util::Status register_action_impl(const std::string& name,
                                           query::ActionImpl impl);

  // Virtual file system backing CREATE ACTION's PROFILE "path" clause.
  void add_virtual_file(const std::string& path, std::string content);

  // Device-type registrations as XML documents (the administrator's
  // profile files of Section 3.1): export every registered type, or
  // register a new type from a document.
  std::map<device::DeviceTypeId, std::string> export_device_types() const;
  aorta::util::Status register_type_from_xml(const std::string& xml);

  // ---- running -------------------------------------------------------------
  // Advance the simulated world (continuous queries evaluate as simulated
  // time passes).
  void run_for(aorta::util::Duration span);

  // Schedule a fault plan's events on the host slice, relative to the
  // current simulated time (core::schedule_fault_plan). Targets are
  // validated up front (unknown devices are an error); the events then
  // fire deterministically as the simulation advances. May be called
  // multiple times (plans compose).
  aorta::util::Status apply_fault_plan(const util::FaultPlan& plan) {
    return schedule_fault_plan(plan, {host_.get()});
  }

  // ---- statistics / internals ----------------------------------------------
  const query::QueryStats* query_stats(const std::string& name) const;
  query::QueryActionStats action_stats(const std::string& name) const;
  SystemStats stats() const;

  aorta::util::EventLoop& loop() { return host_->loop(); }
  // The parallel runtime: loop 0 is the control loop (czar / server /
  // host slice); the sharded plane adds one loop per worker slice.
  aorta::util::LoopGroup& runtime() { return runtime_; }
  net::Fabric& fabric() { return fabric_; }
  // The host slice (core/engine.h) and its components.
  Engine& engine() { return *host_; }
  net::Network& network() { return host_->network(); }
  device::DeviceRegistry& registry() { return host_->registry(); }
  comm::CommLayer& comm() { return host_->comm(); }
  comm::ScanBroker& scan_broker() { return host_->scan_broker(); }
  const comm::ScanBroker& scan_broker() const { return host_->scan_broker(); }
  sync::LockManager& locks() { return host_->locks(); }
  sync::Prober& prober() { return host_->prober(); }
  // nullptr when Config::health_supervision is off.
  HealthSupervisor* health() { return host_->health(); }
  const HealthSupervisor* health() const { return host_->health(); }
  query::Catalog& catalog() { return host_->catalog(); }
  query::ContinuousQueryExecutor& executor() { return host_->executor(); }
  // Observability: the registry every subsystem's counters are enrolled on
  // (the server layer adds its own sections), and the host slice's span
  // tracer.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return host_->tracer(); }
  const obs::Tracer& tracer() const { return host_->tracer(); }

  // Multi-tracer export: every slice's tracer, host first, in creation
  // order; trace_json() yields one merged Chrome trace document in
  // deterministic (virtual time, tracer index) order.
  const std::vector<const obs::Tracer*>& tracers() const { return tracers_; }
  std::string trace_json() const { return obs::merged_chrome_json(tracers_); }
  aorta::util::Status export_trace(const std::string& path) const {
    return obs::export_merged_file(path, tracers_);
  }

  const Config& config() const { return config_; }

 private:
  // A slice registers its tracer here.
  friend class Engine;

  // Synchronous statement kinds (everything but SELECT).
  aorta::util::Result<ExecResult> exec_ddl(query::Statement& s,
                                           const ExecOptions& options);

  // Declared first so every component (which may hold enrolled counters)
  // is destroyed before the observability substrate.
  obs::MetricsRegistry metrics_;
  Config config_;
  // The runtime owns every loop and clock; declared before the slices so
  // it outlives them.
  aorta::util::LoopGroup runtime_;
  net::Fabric fabric_{&runtime_};
  std::vector<const obs::Tracer*> tracers_;
  std::unique_ptr<Engine> host_;
  std::map<std::string, std::string> virtual_files_;
};

}  // namespace aorta::core
