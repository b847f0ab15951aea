// pipeline_bench: one pass of one end-to-end pipeline workload.
//
// Drives the whole stack through its public surfaces only:
//
//   client sessions -> server::QueryService (admission, dispatch)
//     -> shard::Czar (4 fragments per statement, ReliableCall dispatch)
//     -> shard::Worker engines (parse/compile, predicate index, scan broker
//        sweeps of simulated motes over lossy mote_radio links, eval,
//        aggregate folds, actions)
//     -> fragment_results row bursts over the backplane -> czar merge
//        frontier -> session mailbox
//
// A pass builds one world, registers the workload's standing population
// (the set-up phase), then runs the measured window and prints one JSON
// object on its last stdout line. run.py composes passes into a benchmark
// run: repeated set-ups for a steady setup_s, the multi-thread and clean
// replays behind storm's identity checks, and the traced pass.
//
// Everything measured here is measured from outside the engine: wall time
// around the calls the benchmark makes (QueryService::submit,
// Session::drain, Aorta::run_for), a devices::Signal decorator around every
// mote signal, replays of query::parse/compile and shard::encode_rows/
// decode_rows on the workload's own statements and rows, and the
// registry's counters (written as JSON snapshots at window start and end).
// A fixed round of reference work, timed beside every chunk and around
// set-up, measures the shared host's current speed; the gated wall-clock
// figures are normalised by it (see Reference).
//
// Usage:
//   pipeline_bench --workload fanout|churn|storm|churn_sensory --seed N
//                  [--seconds S] [--threads K] [--storm 0|1] [--traced]
//                  [--setup-only] [--out DIR]
//
// The window runs for at least S wall seconds and at least kSpan simulated
// seconds (--seconds 0 runs exactly kSpan).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aorta.h"
#include "query/compile.h"
#include "query/parser.h"
#include "server/service.h"
#include "shard/fragment.h"
#include "shard/plane.h"
#include "util/fault_plan.h"
#include "util/json_writer.h"
#include "util/stats.h"

namespace {

using aorta::server::Delivery;
using aorta::util::Duration;
using aorta::util::TimePoint;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double resident_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- workloads -------------------------------------------------------------
//
// All three share one world: 128 Mica2 motes on their default mote_radio
// links (1-3 hops deep), each with a noisy `temp`, a sine `light` and a
// periodic `accel_x` spike, hash-partitioned over 4 worker shards. All load
// comes from this process, on virtual-time schedules.
//
// Known failure mode (documented, deliberately not fixed here): on a clean
// backplane, one-shot SELECTs that read *sensory* attributes through 4
// shards trip net.reliable.breaker.opens and with it
// shard.czar.workers_marked_down. Such a SELECT's worker-side sweep of
// lossy mote links takes longer than ReliableCall's 1 s attempt timeout,
// so every attempt "fails", four in a row open the peer's breaker, and the
// breaker hook marks the shard down. Each mark-down re-registers every live
// AQ on that shard under a new generation (rows of the old generation are
// dropped as stale), and SELECTs issued meanwhile end as "no live workers"
// errors or partial results. A prototype of `churn` saw 25 mark-downs in
// 12 simulated seconds at 200 sessions, with about half its statements
// failing; standing AQs alone do not trigger it. Here `churn_sensory`
// reproduces it (28 mark-downs in the first 6 simulated seconds, ~58% of
// statements failed, no row reaching a mailbox). `churn` itself selects
// static attributes (id, loc, hops), which workers answer without a radio
// round trip, so its statements succeed and the rest of the statement path
// is measured. `failed_frac` on churn_sensory is the number a fix should
// move; churn_sensory stays out of BENCHMARK.json because its statements
// fail by design.
struct Workload {
  const char* name;
  const char* why;
  int sessions;              // connected in set-up, spread over 20 tenants
  int standing_sessions;     // the first N sessions register standing AQs
  int aqs_per_session;       // standing AQs per registering session
  double rate_hz;            // open-loop statements/s per session (window)
  bool sensory_selects;      // one-shot SELECTs read temp/light, not id/hops
  bool storm;                // sustained czar-link fault plan in the window
};

constexpr Workload kWorkloads[] = {
    {"fanout",
     "broker sweeps, predicate index, eval, aggregate folds, row encoding, "
     "the merge frontier and mailbox delivery do almost all the work",
     5000, 5000, 2, 0.0, false, false},
    {"churn",
     "the write side of query and shard: admission, parse, czar planning, "
     "ReliableCall dispatch, re-parse/compile, index and broker churn, "
     "SELECT merge; row traffic is small",
     1500, 1000, 1, 0.2, false, false},
    {"storm",
     "retries, NACK/replay, dedup, barrier windows and cross-loop posts do "
     "most of their work here and almost none in the clean workloads",
     2000, 2000, 2, 0.0, false, true},
    {"churn_sensory",
     "reproduces the breaker/mark-down failure mode described above",
     1500, 1000, 1, 0.2, true, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

constexpr int kMotes = 128;
constexpr int kShards = 4;
constexpr int kTenants = 20;
// The window advances in fixed simulated chunks; mailboxes drain between.
// One chunk is one whole epoch/heartbeat cycle (the work of a cycle lands
// in its first half), so per-chunk samples are comparable.
constexpr Duration kChunk = Duration::seconds(1.0);
// Simulated warm-up after registration, inside set-up: first sweeps, first
// edge transitions and first aggregate panes settle before measuring.
constexpr Duration kWarmup = Duration::seconds(2.0);
// Virtual-time metrics (rates, latencies, failed_frac) and the row digests
// cover the window's first kSpan simulated seconds, which every pass runs,
// so they are a pure function of the seed, independent of how far a
// wall-clock window gets on a given machine.
constexpr Duration kSpan = Duration::seconds(20.0);
// Rows stamped within this much of the span's end are left out of the
// storm-vs-clean identity digest: under the storm they may still be in a
// NACK/replay round trip when the span ends.
constexpr Duration kConvergence = Duration::seconds(3.0);
// Reference rounds timed on each side of set-up.
constexpr int kSetupRefRounds = 3;
// Host-speed normalisation: a wall time t measured beside a reference round
// that took r seconds reads t * kRefNominal / r, as on a host where one
// round takes kRefNominal (on a shared 4-vCPU 2.0 GHz Xeon VM, rounds took
// 10.5-17 ms as its load changed).
constexpr double kRefNominal = 0.013;
// Wall time per row is taken over blocks of this many chunks, because the
// row count of one chunk swings with the spike and window periods; the
// reported figure is the median block.
constexpr std::size_t kBlockChunks = 5;

// Storm: 10% loss, 1.5x duplication, 30% reordering on every czar<->worker
// traversal, for the whole window (bench_chaos's storm, sustained).
const char* kStormPlanXml =
    "<fault_plan>"
    "<event at=\"0\" kind=\"loss\" device=\"czar\" prob=\"0.1\" for=\"100000\"/>"
    "<event at=\"0\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
    " for=\"100000\"/>"
    "<event at=\"0\" kind=\"reorder\" device=\"czar\" prob=\"0.3\""
    " window=\"0.004\" for=\"100000\"/>"
    "</fault_plan>";

// Windowed-aggregate shapes; tenants drawing the same shape share one
// AggregateCache entry per shard.
const char* const kAggShapes[] = {
    "SELECT avg(s.temp) FROM sensor s GROUP BY s.hops WINDOW 4s EVERY 2s",
    "SELECT max(s.accel_x) FROM sensor s GROUP BY s.hops WINDOW 6s EVERY 2s",
    "SELECT count(s.temp) FROM sensor s WHERE s.temp > 21 WINDOW 4s",
    "SELECT min(s.light), max(s.light) FROM sensor s WINDOW 10s EVERY 5s",
    "SELECT sum(s.light) FROM sensor s WINDOW 5s",
    "SELECT avg(s.temp) FROM sensor s WINDOW 4s EVERY 2s",
    "SELECT count(*), max(s.light) FROM sensor s GROUP BY s.hops WINDOW 10s",
    "SELECT min(s.temp), max(s.temp) FROM sensor s GROUP BY s.hops WINDOW 8s",
    "SELECT avg(s.light), count(*) FROM sensor s WINDOW 2s",
    "SELECT sum(s.temp), count(*) FROM sensor s GROUP BY s.hops "
    "WINDOW 6s EVERY 3s",
};

std::string mote_id(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "m%03zu", i);
  return buf;
}

std::string fmt(const char* f, double v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// Seeded low-discrepancy sequence: the i-th point of a golden-ratio walk
// from `offset`, in [0, 1). The seed moves every parameter, but the points
// always cover [0, 1) evenly, so the world's and the population's
// aggregate load barely depends on the seed.
double golden_point(std::size_t i, double offset) {
  const double v = offset + static_cast<double>(i) * 0.6180339887498949;
  return v - std::floor(v);
}

// A level-triggered point query: one row per epoch.
std::string point_body(double x) {
  return "SELECT s.id, s.temp FROM sensor s WHERE s.id = '" +
         mote_id(static_cast<std::size_t>(x * kMotes)) + "'";
}

// Standing continuous query number `j` (offset `u` from the seed). Out of
// every 50: 18 `s.id =` points, 6 `temp >` half-lines, 10 `light`
// intervals, 8 edge-triggered accel_x spikes per hop depth, 7 shared
// windowed aggregates and 1 beep action AQ. Half-lines are few because one
// noise excursion of a mote fires every half-line it crosses at once;
// their bursts would dominate the seed-to-seed spread of the row rate.
std::string standing_body(std::size_t j, double u) {
  const std::size_t slot = j % 50;
  const double x = golden_point(j, u);
  if (slot < 18) return point_body(x);
  if (slot < 24) {
    return fmt("SELECT s.id, s.temp FROM sensor s WHERE s.temp > %.2f",
               21.0 + 3.5 * x);
  }
  if (slot < 34) {
    const double lo = std::floor(110.0 + 350.0 * x);
    return fmt("SELECT s.id, s.light FROM sensor s WHERE s.light > %.0f", lo) +
           fmt(" AND s.light < %.0f", lo + 10.0 + std::floor(30.0 * golden_point(j, x)));
  }
  if (slot < 42) {
    return fmt("SELECT s.id, s.accel_x FROM sensor s "
               "WHERE s.accel_x > 500 AND s.hops = %.0f",
               static_cast<double>(1 + j % 3));
  }
  if (slot < 49) return kAggShapes[(j / 50 + slot) % std::size(kAggShapes)];
  return "SELECT beep(s.id) FROM sensor s WHERE s.accel_x > 500 AND s.id = '" +
         mote_id(static_cast<std::size_t>(x * kMotes)) + "'";
}

// ---- measurement hooks -------------------------------------------------------

// Decorator timing every sample of a mote signal. Each mote (and so each
// decorator) lives on one worker loop, so the counters need no atomics;
// they are read only while the runtime is quiescent.
class TimedSignal final : public aorta::devices::Signal {
 public:
  explicit TimedSignal(aorta::devices::SignalPtr inner)
      : inner_(std::move(inner)) {}

  double sample(TimePoint t) override {
    const auto t0 = Clock::now();
    const double v = inner_->sample(t);
    ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    ++calls_;
    return v;
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  aorta::devices::SignalPtr inner_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

// ---- host speed reference ------------------------------------------------------
//
// The benchmark runs on shared hosts whose speed drifts by a quarter or
// more over minutes as neighbours load them, and the process's CPU time
// drifts with its wall time (it runs throughout, only slower). A fixed
// round of reference work, timed beside every chunk, measures that speed.
// It is the benchmark's own code and calls nothing in the engine, so a
// change to the engine cannot move it. Its mix follows the engine's hot
// paths: dependent loads over a working set far larger than L2,
// hash-table probes and updates, ordered-map searches and small-string
// building.
class Reference {
 public:
  Reference() {
    std::uint64_t s = 0x5EEDF00DULL;
    chase_.resize(kChaseSlots);
    for (std::uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[next(&s) % i]);
    }
    hash_.reserve(kHashKeys);
    for (std::uint32_t i = 0; i < kHashKeys; ++i) hash_[next(&s)] = i;
    keys_.reserve(kHashKeys);
    for (const auto& kv : hash_) keys_.push_back(kv.first);
    for (std::uint32_t i = 0; i < kTreeKeys; ++i) tree_[next(&s)] = i;
  }

  // Wall seconds of one round. Every round does the same work.
  double round() {
    const auto t0 = Clock::now();
    std::uint64_t s = 0xC0FFEEULL;
    std::uint32_t at = 0;
    for (int i = 0; i < 20000; ++i) at = chase_[at];
    std::uint64_t acc = at;
    for (int i = 0; i < 10000; ++i) {
      auto it = hash_.find(keys_[next(&s) % keys_.size()]);
      acc += it->second;
      const std::uint64_t k = next(&s);
      hash_.emplace(k, i);
      hash_.erase(k);
    }
    for (int i = 0; i < 5000; ++i) {
      auto it = tree_.lower_bound(next(&s));
      acc += it == tree_.end() ? 0 : it->second;
    }
    std::vector<std::string> strings;
    for (int i = 0; i < 1000; ++i) {
      strings.push_back("SELECT s.id FROM sensor s WHERE s.id = '" +
                        mote_id(next(&s) % kMotes) + "'");
    }
    for (const std::string& str : strings) acc += str.size();
    sink_ += acc;
    return seconds_since(t0);
  }

  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint32_t kChaseSlots = 1u << 23;  // 32 MiB
  static constexpr std::uint32_t kHashKeys = 1u << 18;
  static constexpr std::uint32_t kTreeKeys = 1u << 16;

  static std::uint64_t next(std::uint64_t* s) {  // splitmix64
    std::uint64_t z = (*s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<std::uint32_t> chase_;
  std::unordered_map<std::uint64_t, std::uint32_t> hash_;
  std::vector<std::uint64_t> keys_;
  std::map<std::uint64_t, std::uint32_t> tree_;
  std::uint64_t sink_ = 0;
};

// FNV-1a 64 over raw bytes: the per-session row digest.
void mix(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

void mix_row(std::uint64_t* h, const std::string& query, TimePoint at,
             const aorta::query::Row& row, bool degraded) {
  mix(h, query.data(), query.size());
  const std::int64_t at_us = at.to_micros();
  mix(h, &at_us, sizeof(at_us));
  for (const auto& [column, value] : row) {
    mix(h, column.data(), column.size());
    const std::size_t kind = value.index();
    mix(h, &kind, sizeof(kind));
    std::visit(
        [h](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            mix(h, v.data(), v.size());
          } else if constexpr (std::is_same_v<T, aorta::device::Location>) {
            const double xyz[3] = {v.x, v.y, v.z};
            mix(h, xyz, sizeof(xyz));
          } else if constexpr (!std::is_same_v<T, std::monostate>) {
            mix(h, &v, sizeof(v));
          }
        },
        value);
  }
  const char d = degraded ? 1 : 0;
  mix(h, &d, 1);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- options ---------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;      // minimum wall-clock window length
  int threads = 1;            // runtime threads
  int storm = -1;             // -1 = the workload's default
  bool traced = false;
  bool setup_only = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char** v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (a == "--traced") {
      o->traced = true;
    } else if (a == "--setup-only") {
      o->setup_only = true;
    } else if (!next(&v)) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    } else if (a == "--workload") {
      o->workload = find_workload(v);
      if (o->workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", v);
        return false;
      }
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v);
    } else if (a == "--threads") {
      o->threads = std::atoi(v);
    } else if (a == "--storm") {
      o->storm = std::atoi(v);
    } else if (a == "--out") {
      o->out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (o->workload == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

// ---- the pass ----------------------------------------------------------------

class Pass {
 public:
  // `ref_mb` is the reference's resident memory, left out of peak_rss_mb.
  Pass(const Options& opt, Reference* ref, double ref_mb)
      : opt_(opt),
        ref_(ref),
        ref_mb_(ref_mb),
        w_(*opt.workload),
        threads_(std::max(1, opt.threads)),
        storm_(opt.storm >= 0 ? opt.storm != 0 : w_.storm) {}

  // Returns false (after printing why) when set-up did not complete.
  bool setup();
  void run_window();
  void replay_layers();
  void write_result() const;

 private:
  struct Pending {
    TimePoint sent;
    aorta::query::Statement::Kind kind = aorta::query::Statement::Kind::kSelect;
    std::string aq_name;  // CREATE / DROP target (unprefixed)
    bool in_window = false;
  };
  struct Client {
    aorta::server::SessionId session = 0;
    aorta::util::Rng rng{1};
    std::unordered_map<std::uint64_t, Pending> pending;
    std::vector<std::string> live_aqs;  // window-created AQs, oldest first
    std::uint64_t next_name = 1;
    std::uint64_t digest_all = 14695981039346656037ULL;
    std::uint64_t digest_cut = 14695981039346656037ULL;
  };

  void build_world();
  aorta::util::Result<std::uint64_t> submit(std::size_t client,
                                            const std::string& sql);
  void send(std::size_t client, const std::string& sql,
            aorta::query::Statement::Kind kind, const std::string& aq_name);
  void on_delivery(std::size_t client, const Delivery& d);
  void schedule_arrival(std::size_t client);
  void on_arrival(std::size_t client);
  void drain_all();
  void write_snapshot(const std::string& name) const;
  std::uint64_t events_executed();

  Options opt_;
  Reference* ref_;
  double ref_mb_;
  const Workload& w_;
  int threads_ = 1;
  bool storm_ = false;

  std::unique_ptr<aorta::core::Aorta> sys_;
  std::unique_ptr<aorta::server::QueryService> service_;
  std::vector<Client> clients_;
  std::vector<TimedSignal*> timers_;

  // Statement outcomes, counted over the whole window and over the span.
  struct StmtCounts {
    std::uint64_t submitted = 0, refused = 0, resolved = 0, ok = 0;
    std::uint64_t partial = 0, errors = 0, shed = 0;
    std::uint64_t failed() const { return refused + partial + errors + shed; }
  };

  // Phase state.
  bool measuring_ = false;
  bool generating_ = false;
  TimePoint window_start_;
  TimePoint span_end_ = TimePoint::from_micros(INT64_MAX);
  TimePoint cutoff_ = TimePoint::from_micros(INT64_MAX);

  // Set-up.
  double setup_s_ = 0.0;
  std::uint64_t setup_sent_ = 0;
  std::uint64_t setup_pending_ = 0;
  std::uint64_t setup_errors_ = 0;

  // Window (wall-clock metrics) and span (virtual-time metrics).
  double wall_s_ = 0.0, sim_s_ = 0.0, cpu_s_ = 0.0, peak_rss_mb_ = 0.0;
  std::uint64_t rows_ = 0, outcomes_ = 0, span_rows_ = 0;
  // Rows stamped in [window start, cutoff] and delivered within the span:
  // the window's production, untouched by delivery delays up to
  // kConvergence.
  std::uint64_t produced_rows_ = 0;
  // Per-chunk wall/CPU samples; the gated wall-clock metrics are their
  // medians, which a stray stall on a shared machine does not move.
  std::vector<double> chunk_wall_s_, chunk_cpu_s_, chunk_rows_;
  // Reference rounds: one before each chunk, and kSetupRefRounds on each
  // side of set-up.
  std::vector<double> chunk_ref_s_, setup_ref_s_;
  StmtCounts window_, span_;
  aorta::util::Summary row_latency_ms_;
  aorta::util::Summary stmt_latency_ms_;
  std::uint64_t digest_rows_ = 0, digest_cut_rows_ = 0;
  std::uint64_t events_ = 0, windows_ = 0;

  // Calls timed from outside (traced pass).
  std::uint64_t submit_calls_ = 0;
  double submit_wall_s_ = 0.0;
  double drain_wall_s_ = 0.0;
  double run_for_wall_s_ = 0.0;

  // Replay material and results (traced pass).
  std::vector<std::string> replay_sql_;
  std::vector<aorta::query::TimestampedRow> replay_rows_;
  double parse_ns_ = 0.0, compile_ns_ = 0.0, encode_ns_ = 0.0, decode_ns_ = 0.0;
  double rows_per_msg_ = 0.0;
};

void Pass::build_world() {
  aorta::shard::Plane* plane = service_->plane();
  aorta::util::Rng world(opt_.seed * 0x9E3779B97F4A7C15ULL + 17);
  const double temp_u = world.uniform(0.0, 1.0);
  const double light_u = world.uniform(0.0, 1.0);
  const double spike_u = world.uniform(0.0, 1.0);
  for (std::size_t i = 0; i < kMotes; ++i) {
    const std::string id = mote_id(i);
    const double x = static_cast<double>(i % 16) * 2.0;
    const double y = static_cast<double>(i / 16) * 2.0;
    (void)plane->add_mote(id, {x, y, 1.0}, 1 + static_cast<int>(i % 3));
    aorta::devices::Mica2Mote* mote = plane->mote(id);
    std::vector<std::pair<const char*, aorta::devices::SignalPtr>> signals;
    signals.emplace_back(
        "temp", aorta::devices::noisy_signal(
                    18.5 + 3.0 * golden_point(i, temp_u), 1.5, world.fork()));
    signals.emplace_back(
        "light", aorta::devices::sine_signal(
                     300.0, 200.0, 60.0, 6.2831853 * golden_point(i, light_u)));
    signals.emplace_back(
        "accel_x",
        aorta::devices::periodic_spike_signal(
            0.0, 900.0, Duration::seconds(10.0), Duration::seconds(1.0),
            Duration::millis(static_cast<std::int64_t>(
                10000.0 * golden_point(i, spike_u)))));
    for (auto& [attr, signal] : signals) {
      if (opt_.traced) {
        auto timed = std::make_unique<TimedSignal>(std::move(signal));
        timers_.push_back(timed.get());
        signal = std::move(timed);
      }
      (void)mote->set_signal(attr, std::move(signal));
    }
  }
}

aorta::util::Result<std::uint64_t> Pass::submit(std::size_t client,
                                                const std::string& sql) {
  if (!opt_.traced) return service_->submit(clients_[client].session, sql);
  const auto t0 = Clock::now();
  auto r = service_->submit(clients_[client].session, sql);
  submit_wall_s_ += seconds_since(t0);
  ++submit_calls_;
  if (replay_sql_.size() < 20000) replay_sql_.push_back(sql);
  return r;
}

void Pass::send(std::size_t client, const std::string& sql,
                aorta::query::Statement::Kind kind, const std::string& aq_name) {
  const TimePoint now = sys_->loop().now();
  const bool in_span = measuring_ && now <= span_end_;
  if (measuring_) ++window_.submitted;
  if (in_span) ++span_.submitted;
  if (!measuring_) ++setup_sent_;
  auto r = submit(client, sql);
  if (!r.is_ok()) {
    if (measuring_) ++window_.refused;
    if (in_span) ++span_.refused;
    if (!measuring_) ++setup_errors_;
    return;
  }
  Pending p;
  p.sent = now;
  p.kind = kind;
  p.aq_name = aq_name;
  p.in_window = measuring_;
  clients_[client].pending.emplace(r.value(), std::move(p));
  if (!measuring_) ++setup_pending_;
}

void Pass::on_delivery(std::size_t client, const Delivery& d) {
  Client& c = clients_[client];
  const TimePoint now = sys_->loop().now();
  const bool in_span = measuring_ && now <= span_end_;
  if (d.kind == Delivery::Kind::kRow) {
    if (now <= span_end_) {
      mix_row(&c.digest_all, d.query, d.at, d.rows.front(), d.degraded);
      ++digest_rows_;
      if (d.at <= cutoff_) {
        mix_row(&c.digest_cut, d.query, d.at, d.rows.front(), d.degraded);
        ++digest_cut_rows_;
        if (measuring_ && d.at >= window_start_) ++produced_rows_;
      }
    }
    if (measuring_) {
      ++rows_;
      if (opt_.traced && replay_rows_.size() < 20000) {
        replay_rows_.push_back({d.at, d.rows.front(), d.degraded});
      }
    }
    if (in_span) {
      ++span_rows_;
      row_latency_ms_.add((now - d.at).to_millis());
    }
    return;
  }
  if (d.kind == Delivery::Kind::kOutcome) {
    if (measuring_) ++outcomes_;
    return;
  }
  auto it = c.pending.find(d.statement_id);
  if (it == c.pending.end()) return;
  const Pending p = std::move(it->second);
  c.pending.erase(it);
  const bool ok = d.kind == Delivery::Kind::kResult;
  if (!p.in_window) {
    --setup_pending_;
    if (!ok) {
      ++setup_errors_;
      std::fprintf(stderr, "set-up statement failed: %s\n", d.message.c_str());
    }
    return;
  }
  const bool partial =
      ok && d.shards_total >= 0 && d.shards_answered < d.shards_total;
  const bool shed =
      !ok && d.message.find("shed by admission") != std::string::npos;
  for (StmtCounts* n : {&window_, in_span ? &span_ : nullptr}) {
    if (n == nullptr) continue;
    ++n->resolved;
    if (partial) {
      ++n->partial;
    } else if (shed) {
      ++n->shed;
    } else if (!ok) {
      ++n->errors;
    } else {
      ++n->ok;
    }
  }
  if (in_span) stmt_latency_ms_.add((d.at - p.sent).to_millis());
  if (ok && !partial && p.kind == aorta::query::Statement::Kind::kCreateAq) {
    c.live_aqs.push_back(p.aq_name);
  }
}

bool Pass::setup() {
  for (int i = 0; i < kSetupRefRounds; ++i) setup_ref_s_.push_back(ref_->round());
  const auto t0 = Clock::now();
  aorta::core::Config cfg;
  cfg.seed = opt_.seed;
  cfg.scan_freshness = Duration::millis(250);
  cfg.runtime_threads = threads_;
  cfg.tracing = opt_.traced;
  cfg.trace_capacity = 1 << 14;
  sys_ = std::make_unique<aorta::core::Aorta>(cfg);

  aorta::server::ServiceConfig sc;
  sc.num_shards = kShards;
  sc.mailbox_capacity = 4096;
  sc.max_dispatch_per_tick = 2048;
  sc.admission.queue_capacity = 1 << 16;
  sc.admission.max_aqs_per_tenant = 1 << 20;
  sc.admission.max_inflight_selects_per_tenant = 1 << 20;
  service_ = std::make_unique<aorta::server::QueryService>(sys_.get(), sc);
  build_world();

  aorta::util::Rng population(opt_.seed * 0xD1B54A32D192ED03ULL + 5);
  clients_.resize(static_cast<std::size_t>(w_.sessions));
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    c.session = service_->connect("t" + std::to_string(i % kTenants));
    c.rng = population.fork();
    service_->session(c.session)->set_notify(
        [this, i](const Delivery& d) { on_delivery(i, d); });
  }
  const double body_u = population.uniform(0.0, 1.0);
  std::size_t j = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(w_.standing_sessions);
       ++i) {
    for (int k = 0; k < w_.aqs_per_session; ++k, ++j) {
      const std::string name = "q" + std::to_string(k);
      send(i, "CREATE AQ " + name + " AS " + standing_body(j, body_u),
           aorta::query::Statement::Kind::kCreateAq, name);
    }
  }
  // Run until every registration resolved, on to a whole second (so the
  // window starts on the same instant in every pass of this seed), then
  // through the warm-up.
  const TimePoint deadline = sys_->loop().now() + Duration::seconds(120.0);
  while (setup_pending_ > 0 && sys_->loop().now() < deadline) {
    sys_->run_for(Duration::millis(100));
  }
  const std::int64_t us = sys_->loop().now().to_micros();
  sys_->run_for(Duration::micros((1000000 - us % 1000000) % 1000000) +
                kWarmup);
  drain_all();
  setup_s_ = seconds_since(t0);
  for (int i = 0; i < kSetupRefRounds; ++i) setup_ref_s_.push_back(ref_->round());
  if (setup_pending_ > 0 || setup_errors_ > 0) {
    std::fprintf(stderr, "set-up incomplete: %llu pending, %llu failed\n",
                 static_cast<unsigned long long>(setup_pending_),
                 static_cast<unsigned long long>(setup_errors_));
    return false;
  }
  return true;
}

void Pass::schedule_arrival(std::size_t client) {
  const double gap = clients_[client].rng.exponential(1.0 / w_.rate_hz);
  sys_->loop().schedule(Duration::seconds(gap),
                        [this, client]() { on_arrival(client); });
}

// One open-loop arrival: 60% one-shot SELECTs (a projection or a
// count/max merge), the rest alternating CREATE AQ / DROP AQ of the
// session's own AQs (20% each; the AQ population stays level). It fires
// at exactly its scheduled virtual instant (the event loop cannot run
// late), so statement latency is timed from the scheduled send and
// generator lag is zero by construction.
void Pass::on_arrival(std::size_t client) {
  if (!generating_) return;
  Client& c = clients_[client];
  if (c.rng.chance(0.6)) {
    const bool projection = c.rng.chance(0.5);
    std::string sql;
    if (w_.sensory_selects) {
      sql = projection
                ? fmt("SELECT s.id, s.temp FROM sensor s WHERE s.temp > %.1f",
                      c.rng.uniform(18.0, 24.0))
                : "SELECT count(*), max(s.light) FROM sensor s";
    } else {
      sql = projection
                ? fmt("SELECT s.id, s.loc FROM sensor s WHERE s.hops = %.0f",
                      static_cast<double>(1 + c.rng.index(3)))
                : "SELECT count(*), max(s.hops) FROM sensor s";
    }
    send(client, sql, aorta::query::Statement::Kind::kSelect, "");
  } else if (c.live_aqs.empty()) {
    const std::string name = "c" + std::to_string(c.next_name++);
    send(client,
         "CREATE AQ " + name + " AS " + point_body(c.rng.uniform(0.0, 1.0)),
         aorta::query::Statement::Kind::kCreateAq, name);
  } else {
    const std::string name = c.live_aqs.front();
    c.live_aqs.erase(c.live_aqs.begin());
    send(client, "DROP AQ " + name, aorta::query::Statement::Kind::kDropAq,
         name);
  }
  schedule_arrival(client);
}

void Pass::drain_all() {
  const auto t0 = Clock::now();
  for (const Client& c : clients_) {
    (void)service_->session(c.session)->drain();
  }
  if (measuring_) drain_wall_s_ += seconds_since(t0);
}

std::uint64_t Pass::events_executed() {
  std::uint64_t n = 0;
  for (int i = 0; i < sys_->runtime().size(); ++i) {
    n += sys_->runtime().loop(i)->executed();
  }
  return n;
}

void Pass::write_snapshot(const std::string& name) const {
  std::ofstream out(opt_.out_dir + "/" + name);
  out << sys_->metrics().snapshot_json(/*include_buckets=*/false,
                                       /*include_volatile=*/true)
      << '\n';
}

void Pass::run_window() {
  if (storm_) {
    auto plan = aorta::util::FaultPlan::from_xml(kStormPlanXml);
    if (!plan.is_ok() ||
        !service_->plane()->apply_fault_plan(plan.value()).is_ok()) {
      std::fprintf(stderr, "storm fault plan rejected\n");
      std::exit(2);
    }
  }
  window_start_ = sys_->loop().now();
  span_end_ = window_start_ + kSpan;
  cutoff_ = window_start_ + (kSpan - kConvergence);
  write_snapshot("stats_begin.json");
  measuring_ = true;
  if (w_.rate_hz > 0.0) {
    generating_ = true;
    for (std::size_t i = 0; i < clients_.size(); ++i) schedule_arrival(i);
  }
  const std::uint64_t events0 = events_executed();
  const std::uint64_t windows0 = sys_->runtime().windows();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (;;) {
    chunk_ref_s_.push_back(ref_->round());
    const auto r0 = Clock::now();
    const double chunk_cpu0 = cpu_seconds();
    const std::uint64_t chunk_rows0 = rows_;
    sys_->run_for(kChunk);
    run_for_wall_s_ += seconds_since(r0);
    drain_all();
    chunk_wall_s_.push_back(seconds_since(r0));
    chunk_cpu_s_.push_back(cpu_seconds() - chunk_cpu0);
    chunk_rows_.push_back(static_cast<double>(rows_ - chunk_rows0));
    // Memory grows with simulated time, so the peak is read at the span's
    // end, where every pass of this seed stands, not at the window's.
    if (peak_rss_mb_ == 0.0 && sys_->loop().now() >= span_end_) {
      peak_rss_mb_ = peak_rss_mb();
    }
    if (sys_->loop().now() >= span_end_ && seconds_since(t0) >= opt_.seconds) {
      break;
    }
  }
  wall_s_ = seconds_since(t0);
  cpu_s_ = cpu_seconds() - cpu0;
  sim_s_ = (sys_->loop().now() - window_start_).to_seconds();
  events_ = events_executed() - events0;
  windows_ = sys_->runtime().windows() - windows0;
  generating_ = false;
  measuring_ = false;
  write_snapshot("stats_end.json");
}

// Replays of the parse/compile front end and the row codec on this run's
// own statements and rows: per-call costs of layers whose work happens
// inside run_for, where the benchmark cannot time them directly.
void Pass::replay_layers() {
  std::uint64_t sent = 0, msgs = 0;
  for (int i = 0; i < kShards; ++i) {
    const std::string p = "shard." + std::to_string(i) + ".";
    sent += sys_->metrics().counter_value(p + "rows_sent");
    msgs += sys_->metrics().counter_value(p + "results_msgs");
  }
  rows_per_msg_ = msgs == 0 ? 0.0 : static_cast<double>(sent) /
                                        static_cast<double>(msgs);

  std::uint64_t parse_ns = 0, compile_ns = 0, compiled = 0;
  for (const std::string& sql : replay_sql_) {
    const auto t0 = Clock::now();
    auto stmt = aorta::query::parse(sql);
    const auto t1 = Clock::now();
    parse_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (!stmt.is_ok()) continue;
    const aorta::query::Statement& s = stmt.value();
    const aorta::query::SelectStmt* select = nullptr;
    if (s.kind == aorta::query::Statement::Kind::kCreateAq) {
      select = &s.create_aq.select;
    } else if (s.kind == aorta::query::Statement::Kind::kSelect) {
      select = &s.select;
    }
    if (select == nullptr) continue;
    const auto t2 = Clock::now();
    auto cq = aorta::query::compile(
        *select, sys_->catalog(), sys_->registry(),
        s.kind == aorta::query::Statement::Kind::kSelect);
    compile_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t2)
            .count());
    if (cq.is_ok()) ++compiled;
  }
  if (!replay_sql_.empty()) {
    parse_ns_ = static_cast<double>(parse_ns) /
                static_cast<double>(replay_sql_.size());
  }
  if (compiled > 0) {
    compile_ns_ = static_cast<double>(compile_ns) / static_cast<double>(compiled);
  }

  const std::size_t burst =
      std::max<std::size_t>(1, static_cast<std::size_t>(rows_per_msg_ + 0.5));
  std::uint64_t enc_ns = 0, dec_ns = 0, coded = 0;
  std::vector<aorta::query::TimestampedRow> chunk, decoded;
  for (std::size_t i = 0; i < replay_rows_.size(); i += burst) {
    const std::size_t end = std::min(replay_rows_.size(), i + burst);
    chunk.assign(replay_rows_.begin() + static_cast<std::ptrdiff_t>(i),
                 replay_rows_.begin() + static_cast<std::ptrdiff_t>(end));
    const auto t0 = Clock::now();
    const std::string payload = aorta::shard::encode_rows(chunk);
    const auto t1 = Clock::now();
    decoded.clear();
    const bool ok = aorta::shard::decode_rows(payload, &decoded);
    const auto t2 = Clock::now();
    if (!ok || decoded.size() != chunk.size()) {
      std::fprintf(stderr, "row codec round trip failed\n");
      std::exit(2);
    }
    enc_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    dec_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    coded += chunk.size();
  }
  if (coded > 0) {
    encode_ns_ = static_cast<double>(enc_ns) / static_cast<double>(coded);
    decode_ns_ = static_cast<double>(dec_ns) / static_cast<double>(coded);
  }

  std::ofstream(opt_.out_dir + "/stats.json") << service_->stats_json();
  (void)sys_->export_trace(opt_.out_dir + "/trace.json");
}

double pct(const aorta::util::Summary& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}

double median(const std::vector<double>& v) {
  aorta::util::Summary s;
  for (double x : v) s.add(x);
  return pct(s, 50);
}

void Pass::write_result() const {
  std::uint64_t mailbox_dropped = 0;
  std::uint64_t digest_all = 14695981039346656037ULL;
  std::uint64_t digest_cut = 14695981039346656037ULL;
  for (const Client& c : clients_) {
    mailbox_dropped += service_->session(c.session)->mailbox_dropped();
    mix(&digest_all, &c.digest_all, sizeof(c.digest_all));
    mix(&digest_cut, &c.digest_cut, sizeof(c.digest_cut));
  }
  std::uint64_t sample_calls = 0, sample_ns = 0;
  for (const TimedSignal* t : timers_) {
    sample_calls += t->calls();
    sample_ns += t->ns();
  }
  std::vector<double> per_row_us, norm_wall_s, norm_block_us_per_row;
  for (std::size_t i = 0; i < chunk_rows_.size(); ++i) {
    if (chunk_rows_[i] > 0) {
      per_row_us.push_back(chunk_wall_s_[i] * 1e6 / chunk_rows_[i]);
    }
    norm_wall_s.push_back(chunk_wall_s_[i] * kRefNominal / chunk_ref_s_[i]);
  }
  for (std::size_t i = 0; i + kBlockChunks <= norm_wall_s.size();
       i += kBlockChunks) {
    double wall = 0.0, rows = 0.0;
    for (std::size_t j = i; j < i + kBlockChunks; ++j) {
      wall += norm_wall_s[j];
      rows += chunk_rows_[j];
    }
    if (rows > 0) norm_block_us_per_row.push_back(wall * 1e6 / rows);
  }
  std::uint64_t trace_recorded = 0, trace_dropped = 0;
  for (const aorta::obs::Tracer* t : sys_->tracers()) {
    trace_recorded += t->recorded();
    trace_dropped += t->dropped();
  }

  aorta::util::JsonWriter w(0);
  // Measured values keep all their digits.
  auto real = [&w](const char* name, double v) { w.kv(name, v, 9); };
  w.begin_object();
  w.kv("workload", std::string(w_.name));
  w.kv("seed", opt_.seed);
  w.kv("threads", threads_);
  w.kv("storm", storm_);
  w.kv("traced", opt_.traced);
  auto counts = [&w](const char* name, const StmtCounts& n) {
    w.key(name).begin_object();
    w.kv("submitted", n.submitted);
    w.kv("refused", n.refused);
    w.kv("resolved", n.resolved);
    w.kv("ok", n.ok);
    w.kv("partial", n.partial);
    w.kv("errors", n.errors);
    w.kv("shed", n.shed);
    w.kv("failed", n.failed());
    w.end_object();
  };
  real("setup_s", setup_s_);
  real("setup_norm_s", setup_s_ * kRefNominal / median(setup_ref_s_));
  w.kv("setup_sent", setup_sent_);
  w.kv("setup_errors", setup_errors_);
  real("peak_rss_mb",
       (peak_rss_mb_ > 0.0 ? peak_rss_mb_ : peak_rss_mb()) - ref_mb_);
  real("reference_mb", ref_mb_);
  real("wall_s", wall_s_);
  real("sim_s", sim_s_);
  real("cpu_s", cpu_s_);
  w.kv("rows", rows_);
  w.kv("outcomes", outcomes_);
  counts("window", window_);
  real("span_sim_s", kSpan.to_seconds());
  w.kv("span_rows", span_rows_);
  real("produced_sim_s", (kSpan - kConvergence).to_seconds());
  w.kv("produced_rows", produced_rows_);
  real("chunk_sim_s", kChunk.to_seconds());
  real("chunk_wall_s_p50", median(chunk_wall_s_));
  real("chunk_cpu_s_p50", median(chunk_cpu_s_));
  real("chunk_wall_us_per_row_p50", median(per_row_us));
  real("norm_chunk_wall_s_p50", median(norm_wall_s));
  real("norm_wall_us_per_row_p50", median(norm_block_us_per_row));
  real("ref_round_s_p50", median(chunk_ref_s_));
  auto series = [&w](const char* name, const std::vector<double>& v) {
    w.key(name).begin_array();
    for (double x : v) w.value(x, 9);
    w.end_array();
  };
  series("chunk_wall_s", chunk_wall_s_);
  series("chunk_cpu_s", chunk_cpu_s_);
  series("chunk_rows", chunk_rows_);
  series("chunk_ref_s", chunk_ref_s_);
  series("setup_ref_s", setup_ref_s_);
  w.kv("reference_sink", ref_->sink());
  counts("span", span_);
  real("row_latency_p50", pct(row_latency_ms_, 50));
  real("row_latency_p99", pct(row_latency_ms_, 99));
  real("stmt_latency_p50", pct(stmt_latency_ms_, 50));
  real("stmt_latency_p99", pct(stmt_latency_ms_, 99));
  w.kv("mailbox_dropped", mailbox_dropped);
  w.kv("digest_all", hex64(digest_all));
  w.kv("digest_cut", hex64(digest_cut));
  w.kv("digest_rows", digest_rows_);
  w.kv("digest_cut_rows", digest_cut_rows_);
  w.kv("events", events_);
  w.kv("windows", windows_);
  real("admission_latency_p99", pct(service_->admission_latency_ms(), 99));
  w.kv("submit_calls", submit_calls_);
  real("submit_wall_s", submit_wall_s_);
  real("drain_wall_s", drain_wall_s_);
  real("run_for_wall_s", run_for_wall_s_);
  w.kv("sample_calls", sample_calls);
  real("sample_wall_s", static_cast<double>(sample_ns) / 1e9);
  real("parse_ns_per_stmt", parse_ns_);
  real("compile_ns_per_stmt", compile_ns_);
  w.kv("stmts_replayed", static_cast<std::uint64_t>(replay_sql_.size()));
  real("encode_ns_per_row", encode_ns_);
  real("decode_ns_per_row", decode_ns_);
  w.kv("rows_replayed", static_cast<std::uint64_t>(replay_rows_.size()));
  real("rows_per_msg", rows_per_msg_);
  w.kv("trace_recorded", trace_recorded);
  w.kv("trace_dropped", trace_dropped);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  const double rss0 = resident_mb();
  Reference ref;
  Pass pass(opt, &ref, resident_mb() - rss0);
  if (!pass.setup()) return 1;
  if (!opt.setup_only) {
    pass.run_window();
    if (opt.traced) pass.replay_layers();
  }
  pass.write_result();
  return 0;
}
