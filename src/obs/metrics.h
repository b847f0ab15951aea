// MetricsRegistry: the named-metric substrate every subsystem's counters
// live on.
//
// Before this layer, each module kept a private stats struct and the
// service's stats_json() hand-concatenated five sections (server
// admission, ScanBroker, network/RPC, health, compiled eval) with no
// common naming or rendering. The registry replaces that with one
// substrate:
//
//   * modules *enroll* their counters under dotted names
//     ("network.rpc.completed", "scan_broker.types.sensor.batches") — the
//     counter storage stays in the owning module, so hot-path increments
//     remain a plain `++field` with zero indirection;
//   * gauges are enrolled as callbacks, sampled at snapshot time
//     ("sessions.active", "health.quarantined");
//   * latency distributions are LatencyHistograms: fixed-width export
//     buckets plus the exact sample summary the historic stats_json
//     percentiles were computed from (so migrated output values are
//     bit-identical);
//   * one renderer walks the registry in sorted name order and emits the
//     nested JSON document — deterministic across same-seed runs.
//
// Naming scheme (DESIGN.md section 10): lowercase dotted paths,
// `<section>.<subsystem...>.<metric>`; dynamic components (tenant ids,
// device types) are sanitized with sanitize_component() so they cannot
// open unintended nesting levels.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>

#include "util/json_writer.h"
#include "util/stats.h"

namespace aorta::obs {

// A latency distribution: exact samples (count / percentiles / max, the
// values stats_json has always published) plus a fixed-bucket histogram
// for export — bounded-resolution data a dashboard can diff cheaply.
class LatencyHistogram {
 public:
  // Buckets span [lo_ms, hi_ms) in `buckets` equal steps; out-of-range
  // samples land in under/overflow. Defaults fit the simulated stack's
  // admission and sweep latencies (sub-second, ms resolution).
  explicit LatencyHistogram(double lo_ms = 0.0, double hi_ms = 1000.0,
                            std::size_t buckets = 50)
      : hist_(lo_ms, hi_ms, buckets) {}

  void add(double ms) {
    summary_.add(ms);
    hist_.add(ms);
  }

  const aorta::util::Summary& summary() const { return summary_; }
  const aorta::util::Histogram& buckets() const { return hist_; }

  // {"count": N, "p50": x, "p99": x, "max": x} — the historic stats_json
  // shape; include_buckets appends the fixed-bucket export.
  void write_json(aorta::util::JsonWriter& w, bool include_buckets) const;

 private:
  aorta::util::Summary summary_;
  aorta::util::Histogram hist_;
};

class MetricsRegistry {
 public:
  using GaugeFn = std::function<std::int64_t()>;
  using BoolGaugeFn = std::function<bool()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Enrollment registers a *view* of module-owned storage; the module must
  // outlive the registry or unenroll first (components with a shorter
  // lifetime than the system — e.g. the server layer — unenroll their
  // prefix on destruction). Re-enrolling a name replaces the old entry.
  void enroll_counter(std::string name, const std::uint64_t* counter);
  void enroll_gauge(std::string name, GaugeFn fn);
  void enroll_gauge_bool(std::string name, BoolGaugeFn fn);
  void enroll_histogram(std::string name, const LatencyHistogram* hist);

  // Mark an enrolled metric *volatile*: its value depends on wall-clock
  // timing (barrier stall histograms, host-side timings), not on the
  // virtual-clock execution. Volatile metrics are excluded from the
  // default deterministic JSON rendering so same-seed snapshots stay
  // byte-identical across thread counts; pass include_volatile to see
  // them. No-op if the name is not enrolled.
  void mark_volatile(const std::string& name);

  void unenroll(const std::string& name);
  // Remove every metric whose name starts with `prefix`.
  void unenroll_prefix(std::string_view prefix);

  // A registry view that prepends a fixed prefix to every enrolled name,
  // so the same view schema can be enrolled N times under indexed
  // namespaces ("shard.0.scan_broker.*", "shard.1.scan_broker.*") without
  // colliding. A default-constructed Scoped (or one on a null registry)
  // turns every enrollment into a no-op, which lets modules keep a single
  // unconditional enrollment path.
  class Scoped {
   public:
    Scoped() = default;
    Scoped(MetricsRegistry* registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix)) {}

    bool live() const { return registry_ != nullptr; }
    const std::string& prefix() const { return prefix_; }
    MetricsRegistry* registry() const { return registry_; }

    void enroll_counter(const std::string& name, const std::uint64_t* c) {
      if (registry_ != nullptr) registry_->enroll_counter(prefix_ + name, c);
    }
    void enroll_gauge(const std::string& name, GaugeFn fn) {
      if (registry_ != nullptr) {
        registry_->enroll_gauge(prefix_ + name, std::move(fn));
      }
    }
    void enroll_gauge_bool(const std::string& name, BoolGaugeFn fn) {
      if (registry_ != nullptr) {
        registry_->enroll_gauge_bool(prefix_ + name, std::move(fn));
      }
    }
    void enroll_histogram(const std::string& name, const LatencyHistogram* h) {
      if (registry_ != nullptr) registry_->enroll_histogram(prefix_ + name, h);
    }
    void mark_volatile(const std::string& name) {
      if (registry_ != nullptr) registry_->mark_volatile(prefix_ + name);
    }
    // Withdraw everything this scope enrolled.
    void unenroll_all() {
      if (registry_ != nullptr && !prefix_.empty()) {
        registry_->unenroll_prefix(prefix_);
      }
    }

   private:
    MetricsRegistry* registry_ = nullptr;
    std::string prefix_;
  };

  Scoped scoped(std::string prefix) { return Scoped(this, std::move(prefix)); }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.size();
  }
  bool contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.count(name) > 0;
  }

  // Point reads (tests / gates). Missing or differently-typed names
  // return 0 / false.
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;

  // Walk every metric in sorted name order, rendering dotted names as
  // nested objects. The whole document is deterministic: same counters in,
  // same bytes out. Volatile (wall-clock) metrics are excluded unless
  // include_volatile is set.
  void write_json(aorta::util::JsonWriter& w, bool include_buckets = false,
                  bool include_volatile = false) const;
  std::string snapshot_json(bool include_buckets = false,
                            bool include_volatile = false) const;

  // Make a dynamic name component safe for dotted paths ('.' -> '_').
  static std::string sanitize_component(std::string_view raw);

 private:
  using Metric = std::variant<const std::uint64_t*, GaugeFn, BoolGaugeFn,
                              const LatencyHistogram*>;
  struct Entry {
    Metric metric;
    bool volatile_metric = false;  // wall-clock dependent; see mark_volatile
  };
  // Worker loops enroll metrics lazily (new device types, index gauges)
  // on their own threads between epoch barriers, so every access to the
  // map takes the lock. Gauge callbacks run under it and must not call
  // back into the registry.
  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace aorta::obs
