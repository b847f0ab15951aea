// Compiled expression evaluation bench (query/eval_program.h).
//
// Measures per-row predicate evaluation throughput (rows/sec) of the
// tree-walking interpreter (expr_eval.h, the reference semantics) against
// the slot-resolved compiled EvalPrograms, across three predicate
// complexities and 1..256 co-resident AQs (distinct program instances
// evaluated round-robin, modelling many tenants sharing one delivered
// batch). Before any timing, every (program, tuple) pair is checked for
// divergence against the interpreter — value AND error strings must match
// byte-for-byte.
//
// Acceptance (full mode): compiled evaluation is >= 3x the interpreter on
// the mid-complexity predicate at every AQ count, and zero divergences.
// Violations exit non-zero. `--smoke` runs reduced iterations and gates
// only on divergence (CI runs it on every push; the perf gate needs a
// quiet machine and a Release build).
//
// Second sweep: registered-AQ *matching* at scale. N band/threshold AQs
// (1k / 10k / 100k in full mode) register against one simulated sensor
// table and the engine runs the identical workload twice — with the
// predicate index (Config::predicate_index = true) and with it off
// (= false: the same delivery groups and subscriptions, every member on
// the residual list, so every AQ's program runs on every tuple; reported
// as "exhaustive"). Gates: both modes fire the exact same per-AQ event
// sequence counts, and in full mode the indexed engine is >= 10x faster
// at the top point with the index evaluating <= 5% of the registered
// population per delivered tuple (sub-linear matching).
//
// Writes results/bench_eval.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "query/eval_program.h"
#include "query/parser.h"
#include "util/json_writer.h"

namespace {

using aorta::device::Value;
using aorta::query::BindingFrame;
using aorta::query::Env;
using aorta::query::EvalProgram;
using aorta::query::ExprPtr;
using aorta::query::FunctionRegistry;

constexpr int kTuples = 8;

std::string render(const aorta::util::Result<Value>& r) {
  if (r.is_ok()) return "ok:" + aorta::device::value_to_string(r.value());
  return "err:" + r.status().to_string();
}

struct Complexity {
  const char* name;
  // %d is replaced by a per-AQ threshold so each AQ compiles a distinct
  // program (no shared-program cache effects flattering the sweep).
  const char* pattern;
};

const Complexity kComplexities[] = {
    {"simple", "s.accel_x > %d"},
    {"mid", "s.accel_x > %d AND s.temp < 30 OR s.count >= 3"},
    {"complex",
     "(s.accel_x + s.temp * 2) / 3 > s.count AND NOT (s.id = 'm7') "
     "OR s.armed AND s.accel_x - %d > 0"},
};

struct Point {
  std::string complexity;
  int aqs = 0;
  double interp_rows_per_sec = 0.0;
  double compiled_rows_per_sec = 0.0;
  double speedup = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------- registered-AQ matching

struct MatchModeResult {
  double run_seconds = 0.0;       // wall clock of run_for (matching load)
  std::uint64_t events_total = 0;
  std::vector<std::uint64_t> events_per_aq;
  // Index-side counters (zero with the index off).
  std::uint64_t probes = 0;
  std::uint64_t evaluated = 0;  // exact skips + residual program runs
  std::uint64_t pruned = 0;
};

// N AQs over one 8-mote sensor table: 99% narrow bands
// (lo <= accel_x < lo+5, lo spread over the signal range — the
// 100k-tenant shape where any tuple interests few queries) plus 1% open
// thresholds (accel_x > T, the paper's flagship predicate). Sine signals
// sweep the full range so band entry/exit edges fire continuously.
// Registration happens outside the timed window; run_for wall time is the
// matching + delivery bill.
MatchModeResult run_match_mode(int aqs, bool indexed, double sim_seconds) {
  aorta::core::Config cfg;
  cfg.seed = 42;
  cfg.predicate_index = indexed;
  aorta::core::Aorta sys(cfg);
  // Perfect, glitch-free acquisition: the sweep measures matching, so no
  // read failure or degraded tuple should enter the comparison.
  (void)sys.network().set_link(aorta::comm::EngineNode::kNodeId,
                               aorta::net::LinkModel::perfect());
  for (int i = 0; i < 8; ++i) {
    std::string id = "mote" + std::to_string(i);
    (void)sys.add_mote(id, {static_cast<double>(3 * i), 0, 1});
    sys.mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, aorta::net::LinkModel::perfect());
    (void)sys.mote(id)->set_signal(
        "accel_x", aorta::devices::sine_signal(500.0, 480.0, 7.0 + i,
                                               0.9 * i));
  }
  for (int q = 0; q < aqs; ++q) {
    char sql[256];
    if (q % 100 == 0) {
      std::snprintf(sql, sizeof(sql),
                    "CREATE AQ m%d AS SELECT s.accel_x FROM sensor s "
                    "WHERE s.accel_x > %d", q, (q * 7919) % 1000);
    } else {
      int lo = (q * 7919) % 1000;
      std::snprintf(sql, sizeof(sql),
                    "CREATE AQ m%d AS SELECT s.accel_x FROM sensor s "
                    "WHERE s.accel_x >= %d AND s.accel_x < %d", q, lo,
                    lo + 5);
    }
    auto r = sys.exec(sql);
    if (!r.is_ok()) {
      std::fprintf(stderr, "CREATE AQ failed: %s\n",
                   r.status().to_string().c_str());
      std::exit(2);
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  sys.run_for(aorta::util::Duration::seconds(sim_seconds));
  MatchModeResult m;
  m.run_seconds = seconds_since(t0);
  m.events_per_aq.reserve(static_cast<std::size_t>(aqs));
  for (int q = 0; q < aqs; ++q) {
    const aorta::query::QueryStats* qs =
        sys.query_stats("m" + std::to_string(q));
    std::uint64_t events = qs != nullptr ? qs->events : 0;
    m.events_per_aq.push_back(events);
    m.events_total += events;
  }
  if (indexed) {
    m.probes = sys.metrics().counter_value("eval.index.probes");
    m.evaluated = sys.metrics().counter_value("eval.index.exact_skips") +
                  sys.metrics().counter_value("eval.index.residual_evals");
    m.pruned = sys.metrics().counter_value("eval.index.pruned");
  }
  return m;
}

struct MatchPoint {
  int aqs = 0;
  MatchModeResult indexed;
  MatchModeResult exhaustive;
  bool events_identical = false;
  double speedup = 0.0;
  double evaluated_per_probe = 0.0;  // avg AQs evaluated per swept tuple
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const long iters = smoke ? 20000 : 2000000;

  // One sensor-shaped schema, kTuples rows with varied values (including
  // NULLs) so every branch of every predicate gets exercised.
  aorta::comm::Schema schema("sensor",
                             {{"id", aorta::device::AttrType::kString, false},
                              {"accel_x", aorta::device::AttrType::kDouble, true},
                              {"temp", aorta::device::AttrType::kDouble, true},
                              {"count", aorta::device::AttrType::kInt, false},
                              {"armed", aorta::device::AttrType::kBool, false}});
  std::vector<aorta::comm::Tuple> tuples;
  for (int i = 0; i < kTuples; ++i) {
    aorta::comm::Tuple t(&schema, "m" + std::to_string(i));
    t.set_by_name("id", Value{std::string("m") + std::to_string(i)});
    t.set_by_name("accel_x", Value{120.0 * i});
    if (i % 3 != 0) t.set_by_name("temp", Value{20.0 + i});  // every 3rd NULL
    t.set_by_name("count", Value{static_cast<std::int64_t>(i % 5)});
    t.set_by_name("armed", Value{i % 2 == 0});
    tuples.push_back(std::move(t));
  }

  FunctionRegistry functions;
  std::vector<std::string> aliases = {"s"};
  std::map<std::string, const aorta::comm::Schema*> schemas = {{"s", &schema}};

  std::printf("Compiled vs interpreted predicate evaluation, %ld evals per "
              "point%s\n", iters, smoke ? " (smoke)" : "");
  std::printf("\n%8s %6s %16s %16s %9s\n", "pred", "aqs", "interp rows/s",
              "compiled rows/s", "speedup");

  const std::vector<int> sweep = {1, 4, 16, 64, 256};
  std::vector<Point> points;
  long divergences = 0;
  double min_speedup_mid = 1e300;

  for (const Complexity& cx : kComplexities) {
    for (int aqs : sweep) {
      // Compile one distinct program per AQ.
      std::vector<ExprPtr> exprs;
      std::vector<EvalProgram> programs;
      for (int q = 0; q < aqs; ++q) {
        char text[256];
        std::snprintf(text, sizeof(text), cx.pattern, 400 + q);
        auto e = aorta::query::parse_expression(text);
        if (!e.is_ok()) {
          std::fprintf(stderr, "parse failed: %s\n", text);
          return 2;
        }
        auto p = EvalProgram::compile(*e.value(), aliases, schemas, functions);
        if (!p.is_ok()) {
          std::fprintf(stderr, "compile failed: %s\n",
                       p.status().to_string().c_str());
          return 2;
        }
        exprs.push_back(std::move(e).value());
        programs.push_back(std::move(p).value());
      }

      // Divergence check first: every program x tuple, byte-identical.
      for (int q = 0; q < aqs; ++q) {
        for (const aorta::comm::Tuple& t : tuples) {
          BindingFrame frame;
          frame.size = 1;
          frame.set(0, &t);
          Env env;
          env.bind("s", &t);
          std::string c = render(programs[q].run(frame));
          std::string o = render(aorta::query::eval(*exprs[q], env, functions));
          if (c != o) {
            ++divergences;
            std::fprintf(stderr, "DIVERGENCE [%s aq%d %s]: compiled %s vs "
                         "interpreted %s\n", cx.name, q,
                         t.source_device().c_str(), c.c_str(), o.c_str());
          }
        }
      }

      // Interpreted timing: Env rebuilt per row, like the pre-compilation
      // executor did.
      long hits = 0;
      auto t0 = std::chrono::steady_clock::now();
      for (long i = 0; i < iters; ++i) {
        const aorta::comm::Tuple& t = tuples[i % kTuples];
        Env env;
        env.bind("s", &t);
        if (aorta::query::eval_predicate(*exprs[i % aqs], env, functions)) {
          ++hits;
        }
      }
      double interp_s = seconds_since(t0);

      // Compiled timing: fill a frame, run the program.
      long chits = 0;
      t0 = std::chrono::steady_clock::now();
      for (long i = 0; i < iters; ++i) {
        BindingFrame frame;
        frame.size = 1;
        frame.set(0, &tuples[i % kTuples]);
        if (programs[i % aqs].run_predicate(frame)) ++chits;
      }
      double compiled_s = seconds_since(t0);

      if (hits != chits) {
        ++divergences;
        std::fprintf(stderr, "DIVERGENCE [%s %d aqs]: %ld interpreted hits "
                     "vs %ld compiled\n", cx.name, aqs, hits, chits);
      }

      Point pt;
      pt.complexity = cx.name;
      pt.aqs = aqs;
      pt.interp_rows_per_sec = interp_s > 0 ? iters / interp_s : 0.0;
      pt.compiled_rows_per_sec = compiled_s > 0 ? iters / compiled_s : 0.0;
      pt.speedup = pt.interp_rows_per_sec > 0
                       ? pt.compiled_rows_per_sec / pt.interp_rows_per_sec
                       : 0.0;
      if (pt.complexity == "mid") {
        min_speedup_mid = std::min(min_speedup_mid, pt.speedup);
      }
      std::printf("%8s %6d %16.0f %16.0f %8.1fx\n", cx.name, aqs,
                  pt.interp_rows_per_sec, pt.compiled_rows_per_sec,
                  pt.speedup);
      points.push_back(std::move(pt));
    }
  }

  // Registered-AQ matching sweep: indexed vs exhaustive engines.
  const std::vector<int> match_sweep =
      smoke ? std::vector<int>{200, 2000}
            : std::vector<int>{1000, 10000, 100000};
  const double match_sim_s = smoke ? 4.0 : 12.0;
  std::printf("\nRegistered-AQ matching, %g simulated seconds per point\n",
              match_sim_s);
  std::printf("\n%8s %12s %12s %9s %12s %8s\n", "aqs", "s:exhaust",
              "s:indexed", "speedup", "evals/tuple", "events");
  std::vector<MatchPoint> match_points;
  bool match_events_identical = true;
  for (int aqs : match_sweep) {
    MatchPoint mp;
    mp.aqs = aqs;
    mp.exhaustive = run_match_mode(aqs, /*indexed=*/false, match_sim_s);
    mp.indexed = run_match_mode(aqs, /*indexed=*/true, match_sim_s);
    mp.events_identical =
        mp.indexed.events_per_aq == mp.exhaustive.events_per_aq;
    if (!mp.events_identical) match_events_identical = false;
    mp.speedup = mp.indexed.run_seconds > 0
                     ? mp.exhaustive.run_seconds / mp.indexed.run_seconds
                     : 0.0;
    mp.evaluated_per_probe =
        mp.indexed.probes > 0
            ? static_cast<double>(mp.indexed.evaluated) /
                  static_cast<double>(mp.indexed.probes)
            : 0.0;
    std::printf("%8d %12.3f %12.3f %8.1fx %12.1f %8llu%s\n", aqs,
                mp.exhaustive.run_seconds, mp.indexed.run_seconds, mp.speedup,
                mp.evaluated_per_probe,
                static_cast<unsigned long long>(mp.indexed.events_total),
                mp.events_identical ? "" : "  EVENTS-DIVERGED");
    match_points.push_back(std::move(mp));
  }
  const MatchPoint& match_top = match_points.back();

  aorta::util::JsonWriter w(2);
  w.begin_object();
  w.kv("iters", static_cast<std::int64_t>(iters));
  w.kv("smoke", smoke);
  w.key("points").begin_array();
  for (const Point& p : points) {
    w.begin_object();
    w.kv("complexity", p.complexity);
    w.kv("aqs", p.aqs);
    w.kv("interp_rows_per_sec", p.interp_rows_per_sec);
    w.kv("compiled_rows_per_sec", p.compiled_rows_per_sec);
    w.kv("speedup", p.speedup);
    w.end_object();
  }
  w.end_array();
  w.kv("min_speedup_mid", min_speedup_mid);
  w.kv("divergences", static_cast<std::int64_t>(divergences));
  w.key("match").begin_array();
  for (const MatchPoint& mp : match_points) {
    w.begin_object();
    w.kv("aqs", mp.aqs);
    w.key("exhaustive").begin_object();
    w.kv("run_seconds", mp.exhaustive.run_seconds);
    w.kv("events", mp.exhaustive.events_total);
    w.end_object();
    w.key("indexed").begin_object();
    w.kv("run_seconds", mp.indexed.run_seconds);
    w.kv("events", mp.indexed.events_total);
    w.kv("probes", mp.indexed.probes);
    w.kv("evaluated", mp.indexed.evaluated);
    w.kv("pruned", mp.indexed.pruned);
    w.end_object();
    w.kv("speedup", mp.speedup);
    w.kv("evaluated_per_probe", mp.evaluated_per_probe);
    w.kv("events_identical", mp.events_identical);
    w.end_object();
  }
  w.end_array();
  w.kv("match_aqs_max", match_top.aqs);
  w.kv("match_speedup_at_max", match_top.speedup);
  w.kv("match_evaluated_per_probe_at_max", match_top.evaluated_per_probe);
  w.kv("match_events_identical", match_events_identical);
  w.end_object();

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  std::ofstream out("results/bench_eval.json");
  out << w.str() << '\n';
  std::printf("\nwrote results/bench_eval.json\n");

  int rc = 0;
  if (divergences > 0) {
    std::printf("WARNING: %ld divergence(s) between compiled and "
                "interpreted evaluation\n", divergences);
    rc = 1;
  }
  if (!smoke && min_speedup_mid < 3.0) {
    std::printf("WARNING: mid-complexity speedup is %.1fx, below the 3x "
                "target\n", min_speedup_mid);
    rc = 1;
  }
  if (!match_events_identical) {
    std::printf("WARNING: indexed and exhaustive matching fired different "
                "event sequences\n");
    rc = 1;
  }
  if (!smoke && match_top.speedup < 10.0) {
    std::printf("WARNING: indexed matching at %d AQs is %.1fx over "
                "exhaustive, below the 10x target\n", match_top.aqs,
                match_top.speedup);
    rc = 1;
  }
  if (!smoke &&
      match_top.evaluated_per_probe > 0.05 * match_top.aqs) {
    std::printf("WARNING: index evaluated %.1f AQs per tuple at %d "
                "registered (not sub-linear)\n",
                match_top.evaluated_per_probe, match_top.aqs);
    rc = 1;
  }
  return rc;
}
