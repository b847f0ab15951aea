// Shared data-acquisition plane bench (comm::ScanBroker).
//
// Sweeps the number of co-located continuous queries over one 8-mote
// sensor table from 1 to 256 and runs every point twice: with the broker
// coalescing scans (Config::shared_scans = true) and with private
// per-subscription scans (the pre-broker baseline, shared_scans = false).
// Each query is a plain broker subscriber on the engine's plane that
// detects rising edges of accel_x > 500 per device itself: the bench
// measures acquisition topology (N private scans vs one shared sweep),
// which the executor's delivery groups would hide by collapsing N
// identical AQs onto one subscription. Matching cost has its own sweep
// in bench_eval. Reports, per point and mode:
//
//   * sensory read_attr RPCs per engine epoch (the radio bill),
//   * tuples delivered to subscribers per epoch,
//   * batch fan-out latency p50/p99 (tick -> last delivery, simulated ms),
//   * total rising-edge events detected across the queries.
//
// Acceptance: at 32 queries the shared plane issues >= 5x fewer sensory
// RPCs per epoch than the private baseline, while every query detects the
// exact same events (same seed, same signals). Violations exit non-zero.
//
// Everything runs in simulated time on the deterministic event loop;
// writes results/bench_shared_scan.json.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "util/json_writer.h"
#include "util/stats.h"

namespace {

using aorta::util::Duration;

constexpr int kMotes = 8;
constexpr double kSimSeconds = 30.0;

struct ModeResult {
  double rpcs_per_epoch = 0.0;
  double tuples_per_epoch = 0.0;
  double coalesced_per_epoch = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::uint64_t events_total = 0;
  // Per-query event counts, for the identical-results check across modes.
  std::vector<std::uint64_t> events_per_aq;
};

// One continuous query `SELECT s.accel_x FROM sensor s WHERE
// s.accel_x > 500`, evaluated on its own broker subscription: an event is
// a device's rising edge of the predicate. A device missing from a batch
// (unreachable) keeps its previous state.
struct EdgeCounter {
  std::map<std::string, bool> last;  // per device: predicate held last time
  std::uint64_t events = 0;

  void on_batch(const std::vector<aorta::comm::Tuple>& tuples) {
    for (const aorta::comm::Tuple& t : tuples) {
      double x = 0.0;
      bool now = aorta::device::value_as_double(t.get("accel_x"), &x) &&
                 x > 500.0;
      bool& was = last[t.source_device()];
      if (now && !was) ++events;
      was = now;
    }
  }
};

// One run: `aqs` identical-threshold queries over the same sensor table,
// with the shared plane on or off. The spike signals are seconds wide, so the
// millisecond-level acquisition-latency differences between the two modes
// cannot flip an epoch-level edge detection — event counts must match.
// `trace_path`, when set, turns on span tracing for the run and exports
// the Chrome trace next to the results JSON (tracing only records; the
// simulation and its event counts are unchanged).
ModeResult run_mode(int aqs, bool shared, const char* trace_path = nullptr) {
  aorta::core::Config cfg;
  cfg.seed = 42;
  cfg.shared_scans = shared;
  cfg.tracing = trace_path != nullptr;
  aorta::core::Aorta sys(cfg);
  // Lossless, jitter-free links on BOTH ends: the engine's default LAN link
  // drops 0.1% of traversals, which at 256x the RPC volume would cost the
  // private baseline a few reads (and thus events) the shared plane never
  // risks — the identity check needs the radio bill to be the only
  // difference between the modes.
  (void)sys.network().set_link(aorta::comm::EngineNode::kNodeId,
                               aorta::net::LinkModel::perfect());
  for (int i = 0; i < kMotes; ++i) {
    std::string id = "mote" + std::to_string(i);
    (void)sys.add_mote(id, {static_cast<double>(i * 3), 0, 1});
    sys.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, aorta::net::LinkModel::perfect());
    (void)sys.mote(id)->set_signal(
        "accel_x",
        aorta::devices::periodic_spike_signal(
            0.0, 900.0, Duration::seconds(12.0), Duration::seconds(3.0),
            Duration::seconds(static_cast<double>(i))));
  }

  std::vector<std::unique_ptr<EdgeCounter>> queries;
  for (int q = 0; q < aqs; ++q) {
    queries.push_back(std::make_unique<EdgeCounter>());
    (void)sys.scan_broker().subscribe(
        "sensor", {"accel_x"}, 1,
        [counter = queries.back().get()](
            const std::vector<aorta::comm::Tuple>& tuples, std::uint64_t) {
          counter->on_batch(tuples);
        });
  }
  sys.run_for(Duration::seconds(kSimSeconds));
  if (trace_path != nullptr) {
    auto st = sys.tracer().export_file(trace_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.to_string().c_str());
    }
  }

  ModeResult m;
  const aorta::comm::ScanBroker& broker = sys.scan_broker();
  aorta::comm::BrokerTypeStats totals = broker.totals();
  double epochs = static_cast<double>(broker.tick_count());
  if (epochs > 0) {
    m.rpcs_per_epoch = static_cast<double>(totals.rpcs_issued) / epochs;
    m.tuples_per_epoch = static_cast<double>(totals.tuples_delivered) / epochs;
    m.coalesced_per_epoch =
        static_cast<double>(totals.rpcs_coalesced) / epochs;
  }
  const aorta::util::Summary& lat = broker.batch_latency_ms();
  m.latency_p50_ms = lat.empty() ? 0.0 : lat.percentile(50.0);
  m.latency_p99_ms = lat.empty() ? 0.0 : lat.percentile(99.0);
  for (const auto& query : queries) {
    m.events_per_aq.push_back(query->events);
    m.events_total += query->events;
  }
  return m;
}

}  // namespace

int main() {
  std::printf("Shared scan plane: sensory RPCs per epoch, %d motes, "
              "%g simulated seconds per point\n", kMotes, kSimSeconds);
  std::printf("\n%6s %14s %14s %9s %12s %12s %8s\n", "aqs", "rpc/ep:priv",
              "rpc/ep:shared", "saving", "p99ms:priv", "p99ms:shared",
              "events");

  std::error_code ec;
  std::filesystem::create_directories("results", ec);

  const std::vector<int> sweep = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  aorta::util::JsonWriter w(2);
  w.begin_object();
  w.kv("motes", kMotes);
  w.kv("sim_seconds", kSimSeconds);
  w.key("sweep").begin_array();
  bool events_identical = true;
  double saving_at_32 = 0.0;

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    int aqs = sweep[i];
    ModeResult priv = run_mode(aqs, /*shared=*/false);
    // The flagship 32-AQ shared run also exports its span trace: the
    // artifact CI schema-validates and Perfetto loads (README section
    // "Observability").
    ModeResult shared =
        run_mode(aqs, /*shared=*/true,
                 aqs == 32 ? "results/bench_shared_scan_trace.json" : nullptr);

    bool same = priv.events_per_aq == shared.events_per_aq;
    if (!same) events_identical = false;
    double saving = shared.rpcs_per_epoch == 0.0
                        ? 0.0
                        : priv.rpcs_per_epoch / shared.rpcs_per_epoch;
    if (aqs == 32) saving_at_32 = saving;

    std::printf("%6d %14.1f %14.1f %8.1fx %12.3f %12.3f %8llu%s\n", aqs,
                priv.rpcs_per_epoch, shared.rpcs_per_epoch, saving,
                priv.latency_p99_ms, shared.latency_p99_ms,
                static_cast<unsigned long long>(shared.events_total),
                same ? "" : "  EVENTS-DIVERGED");

    w.begin_object();
    w.kv("aqs", aqs);
    w.key("private").begin_object();
    w.kv("rpcs_per_epoch", priv.rpcs_per_epoch);
    w.kv("tuples_per_epoch", priv.tuples_per_epoch);
    w.key("latency_ms").begin_object();
    w.kv("p50", priv.latency_p50_ms);
    w.kv("p99", priv.latency_p99_ms);
    w.end_object();
    w.kv("events", priv.events_total);
    w.end_object();
    w.key("shared").begin_object();
    w.kv("rpcs_per_epoch", shared.rpcs_per_epoch);
    w.kv("tuples_per_epoch", shared.tuples_per_epoch);
    w.kv("coalesced_per_epoch", shared.coalesced_per_epoch);
    w.key("latency_ms").begin_object();
    w.kv("p50", shared.latency_p50_ms);
    w.kv("p99", shared.latency_p99_ms);
    w.end_object();
    w.kv("events", shared.events_total);
    w.end_object();
    w.kv("rpc_saving", saving);
    w.kv("events_identical", same);
    w.end_object();
  }
  w.end_array();
  w.kv("saving_at_32", saving_at_32);
  w.kv("events_identical", events_identical);
  w.end_object();

  std::ofstream out("results/bench_shared_scan.json");
  out << w.str() << '\n';
  std::printf("\nwrote results/bench_shared_scan.json\n");

  int rc = 0;
  if (saving_at_32 < 5.0) {
    std::printf("WARNING: RPC saving at 32 AQs is %.1fx, below the 5x "
                "target\n", saving_at_32);
    rc = 1;
  }
  if (!events_identical) {
    std::printf("WARNING: event detections diverged between shared and "
                "private acquisition\n");
    rc = 1;
  }
  return rc;
}
