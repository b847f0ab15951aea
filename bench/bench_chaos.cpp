// Chaos bench: what device health supervision buys under a scripted
// crash/revive fault plan.
//
// Four motes feed one level-triggered monitoring AQ (one row per device
// per epoch). A FaultPlan crashes mote m1 for a 60 s window in the middle
// of a 120 s run. The same scenario runs twice: supervision on (quarantine
// with backoff probes + degraded last-known-good serving) and off (the
// pre-supervision baseline that re-reads the corpse every epoch).
// Reports, per mode:
//
//   * availability: rows delivered / achievable rows, where achievable
//     excludes the crashed device's crash-window epochs,
//   * degraded rows served (last-known-good, tagged) and their max
//     staleness,
//   * wasted RPCs on the dead device (failed reads + quarantine probes),
//   * recovery latency after the revive (backoff probe -> fresh rows).
//
// Acceptance (exit non-zero on violation):
//   * supervision on spends >= 5x fewer RPCs on the dead device,
//   * supervision on delivers >= 95% of achievable rows,
//   * every row delivered for the crashed device inside the crash window
//     carries the degradation marker (and healthy devices never do),
//   * two supervision-on runs are byte-identical (same seed, same plan).
//
// Everything runs in simulated time on the deterministic event loop;
// writes results/bench_chaos.json.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "shard/plane.h"
#include "util/fault_plan.h"
#include "util/json_writer.h"

namespace {

using aorta::util::Duration;

constexpr int kMotes = 4;
constexpr double kSimSeconds = 120.0;
constexpr double kCrashAt = 20.5;   // mid-epoch, so sweeps see it next tick
constexpr double kReviveAt = 80.5;
const char* kCrashedMote = "m1";

const char* kPlanXml =
    "<fault_plan>"
    "<event at=\"20.5\" kind=\"crash\" device=\"m1\"/>"
    "<event at=\"80.5\" kind=\"revive\" device=\"m1\"/>"
    "</fault_plan>";

struct RowRecord {
  std::int64_t at_us = 0;
  std::string device;
  bool degraded = false;
};

struct ModeResult {
  std::uint64_t delivered = 0;          // rows across all devices
  std::uint64_t degraded_rows = 0;      // rows carrying the marker
  std::uint64_t wasted_rpcs = 0;        // failed reads + quarantine probes
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
  double max_staleness_s = 0.0;         // oldest LKG value served
  double recovery_s = -1.0;             // revive -> first fresh row
  bool marker_ok = true;
  std::string row_log;                  // serialized rows (determinism)
};

// `trace_path`, when set, records the run's span trace (including the
// quarantine/recovery health transitions) and exports it as a Chrome
// trace next to the results JSON.
ModeResult run_mode(bool supervision, const char* trace_path = nullptr) {
  aorta::core::Config cfg;
  cfg.seed = 42;
  cfg.health_supervision = supervision;
  cfg.tracing = trace_path != nullptr;
  // Cover the whole crash window with last-known-good serving.
  cfg.degraded_staleness = Duration::seconds(90.0);
  aorta::core::Aorta sys(cfg);
  // Clean links on both ends: the only failures in this scenario are the
  // scripted crash, so every failed RPC is chargeable to the fault plan.
  (void)sys.network().set_link(aorta::comm::EngineNode::kNodeId,
                               aorta::net::LinkModel::perfect());
  for (int i = 0; i < kMotes; ++i) {
    std::string id = "m" + std::to_string(i);
    (void)sys.add_mote(id, {static_cast<double>(i * 2), 0, 1});
    sys.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, aorta::net::LinkModel::perfect());
    (void)sys.mote(id)->set_signal(
        "temp", aorta::devices::constant_signal(20.0 + i));
  }

  std::vector<RowRecord> rows;
  aorta::core::ExecOptions opt;
  opt.on_row = [&rows](const std::string&,
                       const aorta::query::TimestampedRow& r) {
    const std::string* id =
        r.row.empty() ? nullptr : std::get_if<std::string>(&r.row[0].second);
    rows.push_back(RowRecord{r.at.to_micros(), id != nullptr ? *id : "?",
                             r.degraded});
  };
  bool registered = false;
  sys.exec_async("CREATE AQ mon AS SELECT s.id, s.temp FROM sensor s",
                 std::move(opt),
                 [&](aorta::util::Result<aorta::core::ExecResult> r) {
                   registered = r.is_ok();
                 });
  if (!registered) {
    std::fprintf(stderr, "CREATE AQ failed\n");
    std::exit(2);
  }

  auto plan = aorta::util::FaultPlan::from_xml(kPlanXml);
  if (!plan.is_ok() || !sys.apply_fault_plan(plan.value()).is_ok()) {
    std::fprintf(stderr, "fault plan rejected\n");
    std::exit(2);
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
  m.delivered = rows.size();
  double first_fresh_after_revive = -1.0;
  for (const RowRecord& r : rows) {
    double at_s = static_cast<double>(r.at_us) / 1e6;
    if (r.degraded) {
      ++m.degraded_rows;
      if (r.device != kCrashedMote) m.marker_ok = false;  // healthy tagged
      double staleness = at_s - kCrashAt;
      if (staleness > m.max_staleness_s) m.max_staleness_s = staleness;
    } else if (r.device == kCrashedMote && at_s > kCrashAt &&
               at_s <= kReviveAt) {
      // A fresh row inside the crash window can only mean an untagged
      // delivery for a dead (quarantined) device.
      m.marker_ok = false;
    }
    if (r.device == kCrashedMote && !r.degraded && at_s > kReviveAt &&
        first_fresh_after_revive < 0.0) {
      first_fresh_after_revive = at_s;
    }
    m.row_log += std::to_string(r.at_us) + "|" + r.device + "|" +
                 (r.degraded ? "d" : "f") + "\n";
  }
  if (first_fresh_after_revive >= 0.0) {
    m.recovery_s = first_fresh_after_revive - kReviveAt;
  }

  // Every RPC aimed at the dead device failed (links are otherwise
  // perfect): failed sweep reads, plus the supervisor's backoff probes.
  m.wasted_rpcs = sys.scan_broker().totals().read_failures;
  if (const aorta::core::HealthSupervisor* health = sys.health()) {
    m.wasted_rpcs += health->stats().probes_sent;
    m.quarantines = health->stats().quarantines;
    m.recoveries = health->stats().recoveries;
  }
  return m;
}

// ---- sharded section -------------------------------------------------------
//
// The same scenario class against the 2-shard czar/worker plane, with a
// worker kill layered on top: mote m1 (shard 1) crashes for 60 s, and
// worker shard-0 (owning m0/m2) falls off the network for a 20 s window
// inside that. Asserts the surviving shard's rows keep draining once the
// czar marks shard-0 down, the czar re-registers the fragment on heal,
// and m1's degraded (last-known-good) markers survive the fragment wire
// format end-to-end.

constexpr double kShardKillAt = 40.5;
constexpr double kShardHealAt = 60.5;

const char* kShardedPlanXml =
    "<fault_plan>"
    "<event at=\"20.5\" kind=\"crash\" device=\"m1\"/>"
    "<event at=\"80.5\" kind=\"revive\" device=\"m1\"/>"
    "<event at=\"40.5\" kind=\"partition\" shard=\"0\"/>"
    "<event at=\"60.5\" kind=\"heal\" shard=\"0\"/>"
    "</fault_plan>";

struct ShardedResult {
  std::uint64_t delivered = 0;
  std::uint64_t degraded_rows = 0;
  std::uint64_t rows_during_kill = 0;  // surviving shard, kill window
  std::uint64_t rows_after_heal = 0;   // killed shard's motes, post-heal
  std::uint64_t reregistrations = 0;
  std::uint64_t quarantines = 0;
  bool marker_ok = true;
  std::string row_log;
};

ShardedResult run_sharded() {
  aorta::core::Config cfg;
  cfg.seed = 42;
  cfg.health_supervision = true;
  cfg.degraded_staleness = Duration::seconds(90.0);
  aorta::core::Aorta sys(cfg);
  aorta::shard::Plane::Options po;
  po.num_shards = 2;
  aorta::shard::Plane plane(&sys, po);
  for (int i = 0; i < kMotes; ++i) {
    std::string id = "m" + std::to_string(i);
    (void)plane.add_mote(id, {static_cast<double>(i * 2), 0, 1});
    plane.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, aorta::net::LinkModel::perfect());
    (void)plane.mote(id)->set_signal(
        "temp", aorta::devices::constant_signal(20.0 + i));
  }
  const int killed_shard = 0;
  const int surviving_shard = 1;

  std::vector<RowRecord> rows;
  aorta::core::ExecOptions opt;
  opt.on_row = [&rows](const std::string&,
                       const aorta::query::TimestampedRow& r) {
    const std::string* id =
        r.row.empty() ? nullptr : std::get_if<std::string>(&r.row[0].second);
    rows.push_back(RowRecord{r.at.to_micros(), id != nullptr ? *id : "?",
                             r.degraded});
  };
  bool registered = false;
  plane.exec_async("CREATE AQ mon AS SELECT s.id, s.temp FROM sensor s",
                   std::move(opt),
                   [&](aorta::util::Result<aorta::core::ExecResult> r) {
                     registered = r.is_ok();
                   });
  auto plan = aorta::util::FaultPlan::from_xml(kShardedPlanXml);
  if (!plan.is_ok() || !plane.apply_fault_plan(plan.value()).is_ok()) {
    std::fprintf(stderr, "sharded fault plan rejected\n");
    std::exit(2);
  }
  sys.run_for(Duration::seconds(kSimSeconds));
  if (!registered) {
    std::fprintf(stderr, "sharded CREATE AQ failed\n");
    std::exit(2);
  }

  ShardedResult m;
  m.delivered = rows.size();
  for (const RowRecord& r : rows) {
    double at_s = static_cast<double>(r.at_us) / 1e6;
    // Degraded markers may come from m1 (its quarantine) or from the
    // killed shard's own devices after the partition begins: the
    // partition drops the worker's scan RPCs too, so its supervisor
    // quarantines m0/m2 and serves last-known-good rows until a
    // re-probe succeeds shortly after heal.
    bool killed_shard_quarantine =
        plane.shard_of_device(r.device) == killed_shard &&
        at_s > kShardKillAt;
    if (r.degraded) {
      ++m.degraded_rows;
      if (r.device != kCrashedMote && !killed_shard_quarantine) {
        m.marker_ok = false;
      }
    } else if (r.device == kCrashedMote && at_s > kCrashAt &&
               at_s <= kReviveAt) {
      m.marker_ok = false;
    }
    if (plane.shard_of_device(r.device) == surviving_shard &&
        at_s > kShardKillAt + 5.0 && at_s <= kShardHealAt) {
      ++m.rows_during_kill;  // +5 s: past the heartbeat-miss threshold
    }
    if (plane.shard_of_device(r.device) == killed_shard &&
        at_s > kShardHealAt + 5.0) {
      ++m.rows_after_heal;
    }
    m.row_log += std::to_string(r.at_us) + "|" + r.device + "|" +
                 (r.degraded ? "d" : "f") + "\n";
  }
  m.reregistrations = plane.czar().stats().reregistrations;
  m.quarantines = sys.metrics().counter_value(
      "shard." + std::to_string(plane.shard_of_device(kCrashedMote)) +
      ".health.quarantines");
  return m;
}

// ---- backplane storm section -----------------------------------------------
//
// The reliable backplane (DESIGN.md §14) under a sustained czar-link storm:
// 10% chaos loss, 1.5x duplication, 30% reordering (4 ms window) and a
// 2 ms fixed delay on every czar<->worker traversal for 45 of 60 simulated
// seconds. The chaos draws come from the isolated constant-seeded stream,
// so the storm run and the clean run of the same seed produce identical
// worker-side rows — any difference in what the client sees is the
// backplane protocol's fault. Gates:
//
//   * the storm run's delivered rows (up to a convergence cutoff) are
//     byte-identical to the clean run's: zero lost, zero duplicated,
//     unchanged order;
//   * the machinery demonstrably engaged (duplicates dropped, gaps NACKed
//     and replayed, chaos drops counted) and the replay buffer stayed
//     bounded;
//   * an AQ registered mid-storm still lands (ReliableCall retries);
//   * the ablation arm (Config::reliable_backplane = false: one attempt per
//     RPC, no replay retention, so a NACKed gap is never filled) visibly
//     loses rows.

constexpr double kStormSimSeconds = 60.0;
// Rows produced after this instant are excluded from the identity gate:
// the storm ends at t=50 and both runs' merge frontiers have provably
// converged again a heartbeat or two later.
constexpr double kStormCutoffS = 55.0;

const char* kStormPlanXml =
    "<fault_plan>"
    "<event at=\"5\" kind=\"loss\" device=\"czar\" prob=\"0.1\" for=\"45\"/>"
    "<event at=\"5\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
    " for=\"45\"/>"
    "<event at=\"5\" kind=\"reorder\" device=\"czar\" prob=\"0.3\""
    " window=\"0.004\" for=\"45\"/>"
    "<event at=\"5\" kind=\"delay\" device=\"czar\" add=\"0.002\""
    " for=\"45\"/>"
    "</fault_plan>";

struct StormResult {
  std::uint64_t delivered = 0;         // released rows, whole run
  std::uint64_t cutoff_delivered = 0;  // released rows with at <= cutoff
  std::string row_log;                 // rows with at <= cutoff (identity)
  std::uint64_t late_rows = 0;         // rows of the mid-storm AQ
  std::uint64_t dup_msgs_dropped = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t replay_sent = 0;
  std::uint64_t replay_hwm = 0;
  std::uint64_t replay_depth_end = 0;
  std::uint64_t dropped_chaos = 0;
  std::uint64_t chaos_dup_copies = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
};

StormResult run_storm(bool storm, bool reliable, bool midstorm_aq) {
  aorta::core::Config cfg;
  cfg.seed = 42;
  cfg.reliable_backplane = reliable;
  aorta::core::Aorta sys(cfg);
  aorta::shard::Plane::Options po;
  po.num_shards = 2;
  aorta::shard::Plane plane(&sys, po);
  for (int i = 0; i < 8; ++i) {
    std::string id = "m" + std::to_string(i);
    (void)plane.add_mote(id, {static_cast<double>(i * 2), 0, 1});
    plane.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, aorta::net::LinkModel::perfect());
    (void)plane.mote(id)->set_signal(
        "temp", aorta::devices::constant_signal(20.0 + i));
  }

  StormResult m;
  std::vector<RowRecord> rows;
  aorta::core::ExecOptions opt;
  opt.on_row = [&rows](const std::string&,
                       const aorta::query::TimestampedRow& r) {
    const std::string* id =
        r.row.empty() ? nullptr : std::get_if<std::string>(&r.row[0].second);
    rows.push_back(RowRecord{r.at.to_micros(), id != nullptr ? *id : "?",
                             r.degraded});
  };
  bool registered = false;
  plane.exec_async("CREATE AQ mon AS SELECT s.id, s.temp FROM sensor s",
                   std::move(opt),
                   [&](aorta::util::Result<aorta::core::ExecResult> r) {
                     registered = r.is_ok();
                   });
  if (midstorm_aq) {
    // Registered from inside the storm window: the fragment RPCs must be
    // retried through the chaos loss to ever produce a row. A round trip
    // crosses the czar link twice, so it meets a chaos drop with
    // probability 0.19; 22 registrations spread over t=[6, 48] make 44
    // RPCs, so some retry whatever the chaos stream drew before them
    // (none is dropped with probability 0.81^44, about 1e-4). Kept out
    // of the identity scenario — a
    // registration instant (and thus its first epoch) legitimately
    // depends on how many retries it took.
    for (int at_s = 6; at_s <= 48; at_s += 2) {
      sys.loop().schedule(Duration::seconds(at_s), [&plane, &m, at_s]() {
        aorta::core::ExecOptions late;
        late.on_row = [&m](const std::string&,
                           const aorta::query::TimestampedRow&) {
          ++m.late_rows;
        };
        plane.exec_async(
            "CREATE AQ late" + std::to_string(at_s) +
                " AS SELECT s.temp FROM sensor s WHERE s.temp > 21",
            std::move(late),
            [](aorta::util::Result<aorta::core::ExecResult>) {});
      });
    }
  }
  if (storm) {
    auto plan = aorta::util::FaultPlan::from_xml(kStormPlanXml);
    if (!plan.is_ok() || !plane.apply_fault_plan(plan.value()).is_ok()) {
      std::fprintf(stderr, "storm fault plan rejected\n");
      std::exit(2);
    }
  }
  sys.run_for(Duration::seconds(kStormSimSeconds));
  if (!registered) {
    std::fprintf(stderr, "storm CREATE AQ failed\n");
    std::exit(2);
  }

  m.delivered = rows.size();
  const std::int64_t cutoff_us = static_cast<std::int64_t>(kStormCutoffS * 1e6);
  for (const RowRecord& r : rows) {
    if (r.at_us > cutoff_us) continue;
    ++m.cutoff_delivered;
    m.row_log += std::to_string(r.at_us) + "|" + r.device + "|" +
                 (r.degraded ? "d" : "f") + "\n";
  }
  const aorta::shard::CzarStats& cs = plane.czar().stats();
  m.dup_msgs_dropped = cs.dup_msgs_dropped;
  m.nacks_sent = cs.nacks_sent;
  m.acks_sent = cs.acks_sent;
  const aorta::net::ReliableCallStats& rs = plane.czar().reliable_stats();
  m.retries = rs.retries;
  m.giveups = rs.giveups;
  for (int i = 0; i < po.num_shards; ++i) {
    const aorta::shard::WorkerStats& ws = plane.worker(i).stats();
    m.replay_sent += ws.replay_sent;
    if (ws.replay_hwm > m.replay_hwm) m.replay_hwm = ws.replay_hwm;
    m.replay_depth_end += plane.worker(i).replay_depth();
  }
  // Czar-link chaos lands on the control segment: outbound acks/NACKs at
  // send, inbound worker streams at delivery (their dst traversal).
  m.dropped_chaos = sys.network().stats().dropped_chaos;
  m.chaos_dup_copies = sys.network().stats().chaos_dup_copies;
  return m;
}

void mode_json(aorta::util::JsonWriter& w, const ModeResult& m,
               double availability) {
  w.begin_object();
  w.kv("delivered", m.delivered);
  w.kv("availability", availability);
  w.kv("degraded_rows", m.degraded_rows);
  w.kv("max_staleness_s", m.max_staleness_s);
  w.kv("wasted_rpcs", m.wasted_rpcs);
  w.kv("quarantines", m.quarantines);
  w.kv("recoveries", m.recoveries);
  w.kv("recovery_s", m.recovery_s);
  w.kv("marker_ok", m.marker_ok);
  w.end_object();
}

}  // namespace

int main() {
  std::printf("Chaos bench: %d motes, %g simulated seconds, %s crashed "
              "t=[%g, %g)\n\n",
              kMotes, kSimSeconds, kCrashedMote, kCrashAt, kReviveAt);

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  // The supervised run doubles as the trace-artifact source (health
  // transition instants show the quarantine window in Perfetto).
  ModeResult on =
      run_mode(/*supervision=*/true, "results/bench_chaos_trace.json");
  ModeResult off = run_mode(/*supervision=*/false);
  ModeResult on_again = run_mode(/*supervision=*/true);
  bool deterministic =
      on.row_log == on_again.row_log && on.wasted_rpcs == on_again.wasted_rpcs;

  // Achievable excludes the crashed device's crash-window epochs; degraded
  // serving claws some of those epochs back, which can push availability
  // past 1.0 by design.
  const double epochs = kSimSeconds;
  const double crash_epochs = kReviveAt - kCrashAt;
  const double achievable = kMotes * epochs - crash_epochs;
  double avail_on = static_cast<double>(on.delivered) / achievable;
  double avail_off = static_cast<double>(off.delivered) / achievable;
  double rpc_ratio = on.wasted_rpcs == 0
                         ? static_cast<double>(off.wasted_rpcs)
                         : static_cast<double>(off.wasted_rpcs) /
                               static_cast<double>(on.wasted_rpcs);

  std::printf("%-28s %12s %12s\n", "", "super:on", "super:off");
  std::printf("%-28s %12llu %12llu\n", "rows delivered",
              static_cast<unsigned long long>(on.delivered),
              static_cast<unsigned long long>(off.delivered));
  std::printf("%-28s %11.1f%% %11.1f%%\n", "availability (of achievable)",
              avail_on * 100.0, avail_off * 100.0);
  std::printf("%-28s %12llu %12llu\n", "degraded rows served",
              static_cast<unsigned long long>(on.degraded_rows),
              static_cast<unsigned long long>(off.degraded_rows));
  std::printf("%-28s %12llu %12llu\n", "wasted RPCs on dead device",
              static_cast<unsigned long long>(on.wasted_rpcs),
              static_cast<unsigned long long>(off.wasted_rpcs));
  std::printf("%-28s %11.1fx\n", "RPC saving", rpc_ratio);
  std::printf("%-28s %11.1fs\n", "recovery after revive", on.recovery_s);
  std::printf("%-28s %12s\n", "deterministic",
              deterministic ? "yes" : "NO");

  // ---- sharded worker-kill run ---------------------------------------------
  ShardedResult sh = run_sharded();
  ShardedResult sh_again = run_sharded();
  bool sharded_deterministic = sh.row_log == sh_again.row_log;
  std::printf("\nSharded plane (2 workers; %s crashed t=[%g, %g), worker "
              "shard-0 off the network t=[%g, %g)):\n",
              kCrashedMote, kCrashAt, kReviveAt, kShardKillAt, kShardHealAt);
  std::printf("  %-34s %8llu\n", "rows delivered",
              static_cast<unsigned long long>(sh.delivered));
  std::printf("  %-34s %8llu\n", "degraded rows (wire-preserved)",
              static_cast<unsigned long long>(sh.degraded_rows));
  std::printf("  %-34s %8llu\n", "surviving-shard rows during kill",
              static_cast<unsigned long long>(sh.rows_during_kill));
  std::printf("  %-34s %8llu\n", "killed-shard rows after heal",
              static_cast<unsigned long long>(sh.rows_after_heal));
  std::printf("  %-34s %8llu\n", "czar re-registrations",
              static_cast<unsigned long long>(sh.reregistrations));
  std::printf("  %-34s %8s\n", "deterministic",
              sharded_deterministic ? "yes" : "NO");

  // ---- backplane storm run -------------------------------------------------
  StormResult clean = run_storm(/*storm=*/false, /*reliable=*/true,
                                /*midstorm_aq=*/false);
  StormResult st = run_storm(/*storm=*/true, /*reliable=*/true,
                             /*midstorm_aq=*/false);
  StormResult st_again = run_storm(/*storm=*/true, /*reliable=*/true,
                                   /*midstorm_aq=*/false);
  StormResult abl = run_storm(/*storm=*/true, /*reliable=*/false,
                              /*midstorm_aq=*/false);
  StormResult mid = run_storm(/*storm=*/true, /*reliable=*/true,
                              /*midstorm_aq=*/true);
  bool storm_identical = st.row_log == clean.row_log;
  bool storm_deterministic = st.row_log == st_again.row_log &&
                             st.nacks_sent == st_again.nacks_sent &&
                             st.replay_sent == st_again.replay_sent;
  std::uint64_t ablation_lost = abl.cutoff_delivered < clean.cutoff_delivered
                                    ? clean.cutoff_delivered -
                                          abl.cutoff_delivered
                                    : 0;
  std::printf("\nBackplane storm (2 shards, 8 motes; czar link 10%% loss + "
              "1.5x dup + reorder + 2 ms delay t=[5, 50) of %g s):\n",
              kStormSimSeconds);
  std::printf("  %-34s %8llu\n", "rows delivered (clean run)",
              static_cast<unsigned long long>(clean.delivered));
  std::printf("  %-34s %8llu\n", "rows delivered (storm run)",
              static_cast<unsigned long long>(st.delivered));
  std::printf("  %-34s %8s\n", "storm == clean (to cutoff)",
              storm_identical ? "yes" : "NO");
  std::printf("  %-34s %8llu\n", "chaos drops on the backplane",
              static_cast<unsigned long long>(st.dropped_chaos));
  std::printf("  %-34s %8llu\n", "duplicate msgs dropped (czar)",
              static_cast<unsigned long long>(st.dup_msgs_dropped));
  std::printf("  %-34s %8llu / %llu\n", "NACKs sent / replays answered",
              static_cast<unsigned long long>(st.nacks_sent),
              static_cast<unsigned long long>(st.replay_sent));
  std::printf("  %-34s %8llu\n", "replay buffer high-water mark",
              static_cast<unsigned long long>(st.replay_hwm));
  std::printf("  %-34s %8llu\n", "mid-storm registration retries",
              static_cast<unsigned long long>(mid.retries));
  std::printf("  %-34s %8llu\n", "mid-storm AQ rows",
              static_cast<unsigned long long>(mid.late_rows));
  std::printf("  %-34s %8llu\n", "rows lost with ablation flag",
              static_cast<unsigned long long>(ablation_lost));
  std::printf("  %-34s %8s\n", "deterministic",
              storm_deterministic ? "yes" : "NO");

  aorta::util::JsonWriter w(2);
  w.begin_object();
  w.kv("motes", kMotes);
  w.kv("sim_seconds", kSimSeconds);
  w.key("crash_window_s").begin_array();
  w.value(kCrashAt);
  w.value(kReviveAt);
  w.end_array();
  w.kv("achievable_rows", achievable);
  w.key("supervision_on");
  mode_json(w, on, avail_on);
  w.key("supervision_off");
  mode_json(w, off, avail_off);
  w.kv("rpc_saving", rpc_ratio);
  w.kv("deterministic", deterministic);
  w.key("sharded").begin_object();
  w.kv("delivered", sh.delivered);
  w.kv("degraded_rows", sh.degraded_rows);
  w.kv("rows_during_kill", sh.rows_during_kill);
  w.kv("rows_after_heal", sh.rows_after_heal);
  w.kv("reregistrations", sh.reregistrations);
  w.kv("quarantines", sh.quarantines);
  w.kv("marker_ok", sh.marker_ok);
  w.kv("deterministic", sharded_deterministic);
  w.end_object();
  w.key("storm").begin_object();
  w.kv("clean_delivered", clean.delivered);
  w.kv("storm_delivered", st.delivered);
  w.kv("clean_cutoff_delivered", clean.cutoff_delivered);
  w.kv("storm_cutoff_delivered", st.cutoff_delivered);
  w.kv("identical", storm_identical);
  w.kv("deterministic", storm_deterministic);
  w.kv("dropped_chaos", st.dropped_chaos);
  w.kv("chaos_dup_copies", st.chaos_dup_copies);
  w.kv("dup_msgs_dropped", st.dup_msgs_dropped);
  w.kv("nacks_sent", st.nacks_sent);
  w.kv("acks_sent", st.acks_sent);
  w.kv("replay_sent", st.replay_sent);
  w.kv("replay_hwm", st.replay_hwm);
  w.kv("replay_depth_end", st.replay_depth_end);
  w.kv("giveups", st.giveups);
  w.kv("midstorm_retries", mid.retries);
  w.kv("midstorm_aq_rows", mid.late_rows);
  w.kv("ablation_delivered", abl.cutoff_delivered);
  w.kv("ablation_lost", ablation_lost);
  w.end_object();
  w.end_object();
  std::ofstream out("results/bench_chaos.json");
  out << w.str() << '\n';
  std::printf("\nwrote results/bench_chaos.json\n");

  int rc = 0;
  if (rpc_ratio < 5.0) {
    std::printf("WARNING: RPC saving %.1fx is below the 5x target\n",
                rpc_ratio);
    rc = 1;
  }
  if (avail_on < 0.95) {
    std::printf("WARNING: supervised availability %.1f%% is below 95%%\n",
                avail_on * 100.0);
    rc = 1;
  }
  if (!on.marker_ok || on.degraded_rows == 0) {
    std::printf("WARNING: degradation-marker invariant violated\n");
    rc = 1;
  }
  if (off.degraded_rows != 0) {
    std::printf("WARNING: baseline served degraded rows with supervision "
                "off\n");
    rc = 1;
  }
  if (!deterministic) {
    std::printf("WARNING: supervision-on runs diverged across same-seed "
                "replays\n");
    rc = 1;
  }
  if (!sh.marker_ok || sh.degraded_rows == 0) {
    std::printf("WARNING: sharded degradation-marker invariant violated\n");
    rc = 1;
  }
  if (sh.rows_during_kill == 0) {
    std::printf("WARNING: surviving shard's rows stalled during the worker "
                "kill\n");
    rc = 1;
  }
  if (sh.rows_after_heal == 0 || sh.reregistrations == 0) {
    std::printf("WARNING: czar did not re-register fragments on the healed "
                "worker\n");
    rc = 1;
  }
  if (!sharded_deterministic) {
    std::printf("WARNING: sharded runs diverged across same-seed replays\n");
    rc = 1;
  }
  if (!storm_identical) {
    std::printf("WARNING: storm run lost, duplicated or reordered delivered "
                "rows vs the clean run\n");
    rc = 1;
  }
  if (st.dup_msgs_dropped == 0 || st.nacks_sent == 0 || st.replay_sent == 0 ||
      st.dropped_chaos == 0) {
    std::printf("WARNING: backplane storm did not exercise the reliability "
                "protocol\n");
    rc = 1;
  }
  if (st.replay_hwm == 0 || st.replay_hwm >= 1024) {
    std::printf("WARNING: replay buffer high-water mark %llu out of bounds\n",
                static_cast<unsigned long long>(st.replay_hwm));
    rc = 1;
  }
  if (mid.retries == 0 || mid.late_rows == 0) {
    std::printf("WARNING: mid-storm registration did not retry its way "
                "through\n");
    rc = 1;
  }
  if (ablation_lost == 0) {
    std::printf("WARNING: ablation arm lost no rows — the storm is not "
                "punishing the fail-fast path\n");
    rc = 1;
  }
  if (!storm_deterministic) {
    std::printf("WARNING: storm runs diverged across same-seed replays\n");
    rc = 1;
  }
  return rc;
}
