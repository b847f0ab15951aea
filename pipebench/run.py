#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build, run, check, report.

Run from the repository root:

    python3 pipebench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Builds the engine libraries and the pipeline_bench driver from source into
.bench_build/pipebench (Release, first run only), runs the workload's passes
(see README.md), checks the outputs, prints every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Full results, stats snapshots and the traced pass's Chrome trace are kept
under .bench_build/runs/<workload>-<seed>-trace<0|1>/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "pipebench"
BINARY = BUILD_DIR / "pipeline_bench"
BUILD_TYPE = "Release"
WORKLOADS = ("fanout", "churn", "storm", "churn_sensory")
# Set-ups per run: the set-up-only passes plus the measured pass's own.
SETUP_ONLY_PASSES = 4
PASS_TIMEOUT_S = 150

# Contract metrics, in BENCHMARK.json order. The timings are normalised to
# host speed (see README.md): wall time beside each reference round r reads
# as wall * 13 ms / r.
END_TO_END = [
    ("sim_per_wall_norm", "sim_s/wall_s"),
    ("wall_us_per_row_norm", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rows_per_sim_s", "1/sim_s"),
]
# Printed for every workload but not gated: the raw wall-clock figures,
# which move with the shared host's speed; the reference round that
# measures that speed; figures undefined (no statements in the window) or
# constant by construction on some workloads; and CPU per simulated second,
# the mirror of sim_per_wall at one runtime thread.
END_TO_END_PRINTED = [
    ("sim_per_wall", "sim_s/wall_s"),
    ("wall_us_per_row", "us"),
    ("setup_raw_s", "s"),
    ("ref_round_ms", "ms"),
    ("cpu_s_per_sim_s", "cpu_s/sim_s"),
    ("wall_us_per_stmt", "us"),
    ("row_latency_sim_ms.p50", "sim_ms"),
    ("row_latency_sim_ms.p99", "sim_ms"),
    ("stmt_latency_sim_ms.p50", "sim_ms"),
    ("stmt_latency_sim_ms.p99", "sim_ms"),
    ("stmts_ok_per_sim_s", "1/sim_s"),
    ("failed_frac", "ratio"),
]
SPAN_CATS = ("parse", "register", "sweep", "rpc", "eval", "action",
             "delivery", "epoch", "health", "fragment", "merge")


def fail(msg):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(1)


# ---- build -------------------------------------------------------------------

def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build failed: {e}")
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-15:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see .bench_build/pipebench/build.log)")


def stamp(seed):
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache.read_text(),
                      re.M)
        if m:
            try:
                compiler = subprocess.run(
                    [m.group(1), "--version"], capture_output=True, text=True,
                    timeout=30).stdout.splitlines()[0]
            except (OSError, subprocess.TimeoutExpired, IndexError):
                compiler = m.group(1)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": BUILD_TYPE, "commit": commit}


# ---- passes ------------------------------------------------------------------

def run_pass(out_dir, workload, seed, seconds, *extra):
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir), *extra]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pass timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        print(p.stderr[-3000:], file=sys.stderr)
        fail(f"pass failed ({p.returncode}): {' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"pass printed nothing: {' '.join(cmd)}")
    return json.loads(lines[-1])


def flatten(node, prefix="", out=None):
    out = {} if out is None else out
    for key, value in node.items():
        name = prefix + key
        if isinstance(value, dict) and not {"count", "p50"} <= set(value):
            flatten(value, name + ".", out)
        else:
            out[name] = value
    return out


class Snapshot:
    """Registry counters over the window: end snapshot minus start."""

    def __init__(self, run_dir):
        self.begin = flatten(json.loads((run_dir / "stats_begin.json").read_text()))
        self.end = flatten(json.loads((run_dir / "stats_end.json").read_text()))

    def keys(self, pattern):
        rx = re.compile(pattern)
        return [k for k in self.end if rx.fullmatch(k)]

    def delta(self, pattern):
        total = 0
        for k in self.keys(pattern):
            v = self.end[k]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            b = self.begin.get(k, 0)
            total += v - (b if isinstance(b, (int, float)) else 0)
        return total

    def total(self, pattern):
        return sum(self.end[k] for k in self.keys(pattern)
                   if isinstance(self.end[k], (int, float)))

    def gauge(self, pattern):
        vals = [self.end[k] for k in self.keys(pattern)
                if isinstance(self.end[k], (int, float))]
        return max(vals) if vals else 0

    def hist_max(self, pattern, field):
        vals = [self.end[k][field] for k in self.keys(pattern)
                if isinstance(self.end[k], dict)]
        return max(vals) if vals else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ---- metrics -----------------------------------------------------------------

def end_to_end(m, setups):
    span_s = m["span_sim_s"]
    span = m["span"]
    window = m["window"]
    # Wall-clock rates are medians over the window's fixed simulated chunks
    # (per row: over blocks of chunks).
    return {
        "sim_per_wall_norm": m["chunk_sim_s"] / m["norm_chunk_wall_s_p50"],
        "wall_us_per_row_norm": m["norm_wall_us_per_row_p50"],
        "sim_per_wall": m["chunk_sim_s"] / m["chunk_wall_s_p50"],
        "wall_us_per_row": m["chunk_wall_us_per_row_p50"],
        "ref_round_ms": m["ref_round_s_p50"] * 1e3,
        "wall_us_per_stmt": ratio(m["wall_s"] * 1e6, window["resolved"]),
        "cpu_s_per_sim_s": m["chunk_cpu_s_p50"] / m["chunk_sim_s"],
        "setup_s": statistics.median(r["setup_norm_s"] for r in setups),
        "setup_raw_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": m["peak_rss_mb"],
        "row_latency_sim_ms.p50": m["row_latency_p50"],
        "row_latency_sim_ms.p99": m["row_latency_p99"],
        "stmt_latency_sim_ms.p50": m["stmt_latency_p50"],
        "stmt_latency_sim_ms.p99": m["stmt_latency_p99"],
        "rows_per_sim_s": m["produced_rows"] / m["produced_sim_s"],
        "stmts_ok_per_sim_s": span["ok"] / span_s,
        "failed_frac": ratio(span["failed"], span["submitted"]),
    }


def per_layer(base, tr, run_dir):
    s = Snapshot(run_dir)
    shard = r"shard\.\d+\."
    broker = shard + r"scan_broker\.types\.[^.]+\."
    rows = tr["rows"]
    comm = {k: s.delta(broker + k) for k in (
        "batches", "rpcs_issued", "rpcs_coalesced", "cache_hits",
        "read_failures", "tuples_delivered")}
    reads = comm["rpcs_issued"] + comm["rpcs_coalesced"] + comm["cache_hits"]
    index = {k: s.delta(shard + r"eval\.index\." + k) for k in (
        "probes", "candidates", "residual_evals", "exact_skips", "pruned")}
    covered = tr["run_for_wall_s"] + tr["drain_wall_s"]
    out = {
        "runtime.events": (tr["events"], "count"),
        "runtime.wall_ns_per_event": (ratio(tr["wall_s"] * 1e9, tr["events"]), "ns"),
        "runtime.windows": (tr["windows"], "count"),
        "runtime.posts": (s.delta(r"runtime\.\d+\.posts_out"), "count"),
        "runtime.barrier_stall_ms": (s.hist_max(r"runtime\.\d+\.barrier_stall_ms", "p99"), "ms"),
        "net.messages": (s.delta(r"network\.sent") + s.delta(shard + r"network\.sent"), "count"),
        "net.msgs_per_row": (ratio(s.delta(r"network\.sent") + s.delta(shard + r"network\.sent"), rows), "ratio"),
        "net.rpc.timeouts": (s.delta(r"network\.rpc\.timeouts") + s.delta(shard + r"network\.rpc\.timeouts"), "count"),
        "net.reliable.attempts": (s.delta(r"net\.reliable\.attempts"), "count"),
        "net.reliable.retries": (s.delta(r"net\.reliable\.retries"), "count"),
        "net.reliable.breaker.opens": (s.delta(r"net\.reliable\.breaker\.opens"), "count"),
        "net.reliable.replay_sent": (s.delta(shard + r"reliable\.replay_sent"), "count"),
        "net.reliable.replay_hwm": (s.gauge(r"net\.reliable\.replay_hwm"), "count"),
        "shard.czar.nacks_sent": (s.delta(r"shard\.czar\.nacks_sent"), "count"),
        "shard.czar.dup_msgs_dropped": (s.delta(r"shard\.czar\.dup_msgs_dropped"), "count"),
        "shard.czar.ooo_buffered": (s.delta(r"shard\.czar\.ooo_buffered"), "count"),
        "devices.sample_calls": (tr["sample_calls"], "count"),
        "devices.sample_wall_ms": (tr["sample_wall_s"] * 1e3, "ms"),
        **{f"comm.{k}": (v, "count") for k, v in comm.items()},
        "comm.read_share_ratio": (ratio(comm["rpcs_coalesced"] + comm["cache_hits"], reads), "ratio"),
        "comm.batch_latency_sim_ms.p50": (s.hist_max(shard + r"scan_broker\.batch_latency_ms", "p50"), "sim_ms"),
        "comm.batch_latency_sim_ms.p99": (s.hist_max(shard + r"scan_broker\.batch_latency_ms", "p99"), "sim_ms"),
        **{f"query.index.{k}": (v, "count") for k, v in index.items()},
        "query.index.candidates_per_probe": (ratio(index["candidates"], index["probes"]), "ratio"),
        "query.compiled_evals": (s.delta(shard + r"eval\.compiled_evals"), "count"),
        "query.fallback_evals": (s.delta(shard + r"eval\.fallback_evals"), "count"),
        "query.agg.tuples_evaluated": (s.delta(shard + r"eval\.agg\.tuples_evaluated"), "count"),
        "query.agg.emissions": (s.delta(shard + r"eval\.agg\.emissions"), "count"),
        # Sharing is decided at registration, mostly during set-up: totals.
        "query.agg_cache.hits": (s.total(shard + r"broker\.agg_cache\.hits"), "count"),
        "query.agg_cache.misses": (s.total(shard + r"broker\.agg_cache\.misses"), "count"),
        "query.agg_cache.subsumptions": (s.total(shard + r"broker\.agg_cache\.subsumptions"), "count"),
        "query.programs_compiled": (s.delta(shard + r"eval\.programs_compiled"), "count"),
        "query.parse_ns_per_stmt": (tr["parse_ns_per_stmt"], "ns"),
        "query.compile_ns_per_stmt": (tr["compile_ns_per_stmt"], "ns"),
        "actions.outcomes": (tr["outcomes"], "count"),
        "shard.fragments_registered": (s.delta(shard + r"fragments\.registered"), "count"),
        "shard.fragments_dropped": (s.delta(shard + r"fragments\.dropped"), "count"),
        "shard.czar.reregistrations": (s.delta(r"shard\.czar\.reregistrations"), "count"),
        "shard.czar.workers_marked_down": (s.delta(r"shard\.czar\.workers_marked_down"), "count"),
        "shard.czar.partial_selects": (s.delta(r"shard\.czar\.partial_selects"), "count"),
        "shard.rows_per_msg": (ratio(s.delta(shard + r"rows_sent"), s.delta(shard + r"results_msgs")), "ratio"),
        "shard.codec.encode_ns_per_row": (tr["encode_ns_per_row"], "ns"),
        "shard.codec.decode_ns_per_row": (tr["decode_ns_per_row"], "ns"),
        "shard.merge.rows_in": (s.delta(r"shard\.czar\.merge\.rows_in"), "count"),
        "shard.merge.release_passes": (s.delta(r"shard\.czar\.merge\.release_passes"), "count"),
        "server.submit_wall_us": (ratio(tr["submit_wall_s"] * 1e6, tr["submit_calls"]), "us"),
        "server.drain_wall_ms": (tr["drain_wall_s"] * 1e3, "ms"),
        "server.admission_latency_sim_ms.p99": (tr["admission_latency_p99"], "sim_ms"),
        "server.admission.shed": (s.delta(r"admission\.shed"), "count"),
        "server.admission.rejected": (s.delta(r"admission\.rejected"), "count"),
        "server.admission.queued_end": (s.gauge(r"admission\.queued"), "count"),
        "engine.unattributed_wall_ms": ((tr["wall_s"] - covered) * 1e3, "ms"),
        # Normalised chunk medians, so a change of host speed between the
        # two passes does not read as tracing overhead.
        "trace.overhead_frac": (
            tr["norm_chunk_wall_s_p50"] / base["norm_chunk_wall_s_p50"] - 1.0,
            "ratio"),
        "trace.recorded": (tr["trace_recorded"], "count"),
    }
    trace = json.loads((run_dir / "trace.json").read_text())
    counts = dict.fromkeys(SPAN_CATS, 0)
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") == "X" and ev.get("cat") in counts:
            counts[ev["cat"]] += 1
    for cat, n in counts.items():
        out[f"trace.spans.{cat}"] = (n, "count")
    return out


# ---- checks ------------------------------------------------------------------

def check_pass(name, r, problems):
    if r["setup_errors"]:
        problems.append(f"{name}: {r['setup_errors']} set-up statements failed")
    if r["mailbox_dropped"]:
        problems.append(f"{name}: {r['mailbox_dropped']} mailbox drops")


def check_storm(workload, seed, run_dir, measured, problems):
    """storm: 1 thread == min(4, nproc) threads; storm == clean to cutoff."""
    threads = str(max(1, min(4, os.cpu_count() or 1)))
    par = run_pass(run_dir / "threads", workload, seed, 0, "--threads", threads)
    clean = run_pass(run_dir / "clean", workload, seed, 0, "--storm", "0")
    check_pass(f"storm@{threads} threads", par, problems)
    check_pass("clean", clean, problems)
    if (par["digest_all"], par["digest_rows"]) != (measured["digest_all"],
                                                   measured["digest_rows"]):
        problems.append("storm: row digest differs between 1 thread and "
                        f"{threads} threads")
    if (clean["digest_cut"], clean["digest_cut_rows"]) != (
            measured["digest_cut"], measured["digest_cut_rows"]):
        problems.append("storm: row digest differs from the clean run's "
                        "up to the convergence cutoff")


def validate_artifacts(run_dir, problems):
    for tool, path in (("validate_trace.py", run_dir / "trace.json"),
                       ("validate_metrics.py", run_dir / "stats.json")):
        script = ROOT / "tools" / tool
        if not script.exists():
            problems.append(f"missing tools/{tool}")
            continue
        p = subprocess.run([sys.executable, str(script), str(path)],
                           capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            problems.append(f"tools/{tool}: {p.stdout.strip()[-300:]}")


# ---- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    if not BINARY.exists():
        fail("build produced no pipeline_bench binary")
    w, seed = args.workload, args.seed
    run_dir = ROOT / ".bench_build" / "runs" / f"{w}-{seed}-trace{args.trace}"
    problems = []
    st = stamp(seed)

    measured = run_pass(run_dir / "measured", w, seed, args.seconds)
    check_pass("measured", measured, problems)
    if measured["rows"] == 0:
        problems.append("no rows reached a mailbox")
    if measured["storm"]:
        check_storm(w, seed, run_dir, measured, problems)

    if args.trace == 0:
        setups = [measured]
        for i in range(SETUP_ONLY_PASSES):
            r = run_pass(run_dir / f"setup{i}", w, seed, 0, "--setup-only")
            check_pass(f"setup{i}", r, problems)
            setups.append(r)
        values = end_to_end(measured, setups)
        units = dict(END_TO_END + END_TO_END_PRINTED)
        shown = {k: (values[k], units[k]) for k, _ in END_TO_END + END_TO_END_PRINTED}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    else:
        traced = run_pass(run_dir / "traced", w, seed, args.seconds, "--traced")
        check_pass("traced", traced, problems)
        if traced["digest_all"] != measured["digest_all"]:
            problems.append("tracing changed the delivered rows")
        validate_artifacts(run_dir / "traced", problems)
        shown = per_layer(measured, traced, run_dir / "traced")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}

    print(f"pipebench {w}: seed={st['seed']} nproc={st['nproc']} "
          f"compiler=\"{st['compiler']}\" build={st['build_type']} "
          f"commit={st['commit']} threads={measured['threads']}")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  correctness: {'ok' if not problems else 'FAILED'}")

    window = measured["window"]
    result = {
        "correct": not problems,
        "attempted": measured["setup_sent"] + window["submitted"],
        "failed": measured["setup_errors"] + window["failed"],
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"stamp": st, "workload": w, "trace": args.trace, "problems": problems,
         "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
         "measured": measured, **result}, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
