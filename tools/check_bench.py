#!/usr/bin/env python3
"""Bench regression gate: compare bench result JSON against committed baselines.

Each baseline file (bench/baselines/*.json) names a results file and a list
of checks over dotted paths into it:

    {
      "results": "bench_shared_scan.json",
      "checks": [
        {"path": "saving_at_32", "min": 5.0},
        {"path": "sweep.5.shared.events", "equals": 736},
        {"path": "events_identical", "equals": true}
      ]
    }

Rules per check (any combination):
    min      value must be >= min
    max      value must be <= max
    equals   value must equal (numbers: within "tol", default 1e-9)

Path segments are object keys; integer segments index arrays
("sweep.5.shared.events" -> results["sweep"][5]["shared"]["events"]).

The bench workloads run in simulated time on a deterministic event loop,
so simulation-derived metrics are identical across machines — baselines
can pin them tightly. Wall-clock metrics (rows/sec) should only get
directional bounds, if gated at all.

Every rule of every check is evaluated (no first-mismatch-wins): after the
per-check log, failures are replayed as one aligned per-metric diff table
(results file, metric path, actual value, violated bound) so a regression
across many metrics reads as one table, not a scavenger hunt.

Exit code 0 when every check passes, 1 otherwise. Stdlib only.

Trajectory mode (--trajectory BENCH_pipeline.json --benchmark BENCHMARK.json)
checks the committed wall-clock trajectory instead: every end-to-end metric
of the newest PR's points must not be worse than BENCHMARK.json's bound for
it, in the metric's `better` direction. A point's metric is its `ratio`
(change median over parent median), or change / parent when it carries no
ratio; "worse" is 1 - ratio for a `higher` metric and ratio - 1 for a
`lower` one.
"""

import argparse
import json
import os
import sys


def resolve(doc, path):
    node = doc
    for seg in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(seg)]
            except (ValueError, IndexError):
                raise KeyError(path)
        elif isinstance(node, dict):
            if seg not in node:
                raise KeyError(path)
            node = node[seg]
        else:
            raise KeyError(path)
    return node


def run_check(check, doc):
    """Returns (actual, [(rule-description, ok), ...]) — every min/max/equals
    rule is evaluated independently so a failure report can say exactly
    which bound broke, not just that one of them did."""
    path = check["path"]
    value = resolve(doc, path)
    rules = []
    is_num = isinstance(value, (int, float)) and not isinstance(value, bool)
    if "min" in check:
        rules.append((f">= {check['min']}", is_num and value >= check["min"]))
    if "max" in check:
        rules.append((f"<= {check['max']}", is_num and value <= check["max"]))
    if "equals" in check:
        want = check["equals"]
        if isinstance(want, bool) or isinstance(value, bool):
            ok = value is want
        elif isinstance(want, (int, float)) and isinstance(value, (int, float)):
            ok = abs(value - want) <= check.get("tol", 1e-9)
        else:
            ok = value == want
        rules.append((f"== {want!r}", ok))
    if not rules:
        raise ValueError(f"check for {path!r} has no min/max/equals rule")
    return value, rules


def print_diff_table(failures):
    """Aligned per-metric diff of every failed rule, printed after the full
    run so one glance shows the complete regression surface."""
    headers = ("results file", "metric", "actual", "expected")
    rows = [(f, p, a, e) for f, p, a, e in failures]
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(4)]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print("\nFailed checks:")
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(4)))


def check_trajectory(trajectory_path, benchmark_path):
    """Trajectory mode (see the module docstring); returns the exit code."""
    with open(trajectory_path) as f:
        points = json.load(f)
    with open(benchmark_path) as f:
        metrics = json.load(f)["end_to_end"]
    if not points:
        print(f"error: no points in {trajectory_path}", file=sys.stderr)
        return 1
    newest = max(p["pr"] for p in points)
    failed_rows = []
    checks_run = 0
    for point in (p for p in points if p["pr"] == newest):
        for spec in metrics:
            m = point["metrics"].get(spec["name"])
            if m is None:
                continue
            ratio = m.get("ratio")
            if ratio is None:
                ratio = m["change"] / m["parent"]
            higher = spec["better"] == "higher"
            bound = spec["bound"]
            ok = (1 - ratio if higher else ratio - 1) <= bound
            checks_run += 1
            where = f"PR {newest} {point['workload']}"
            want = (f"ratio >= {1 - bound:g}" if higher
                    else f"ratio <= {1 + bound:g}")
            print(f"{'ok  ' if ok else 'FAIL'} {where} :: {spec['name']} "
                  f"ratio = {ratio:g} (want {want})")
            if not ok:
                failed_rows.append((where, spec["name"], f"{ratio:g}", want))
    if failed_rows:
        print_diff_table(failed_rows)
    print(f"\n{checks_run} check(s), {len(failed_rows)} failure(s)")
    if checks_run == 0:
        print(f"error: PR {newest}'s points carry no end-to-end metric",
              file=sys.stderr)
        return 1
    return 1 if failed_rows else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory of baseline specs (default: %(default)s)")
    ap.add_argument("--results", default="results",
                    help="directory of bench result JSON (default: %(default)s)")
    ap.add_argument("--trajectory", default=None,
                    help="wall-clock trajectory to check instead "
                         "(BENCH_pipeline.json); needs --benchmark")
    ap.add_argument("--benchmark", default=None,
                    help="BENCHMARK.json whose end-to-end bounds apply")
    args = ap.parse_args()
    if args.trajectory:
        if not args.benchmark:
            ap.error("--trajectory needs --benchmark")
        return check_trajectory(args.trajectory, args.benchmark)

    specs = sorted(
        f for f in os.listdir(args.baselines) if f.endswith(".json"))
    if not specs:
        print(f"error: no baseline specs in {args.baselines}", file=sys.stderr)
        return 1

    failures = 0
    checks_run = 0
    failed_rows = []  # (results file, metric path, actual, expected)
    for spec_name in specs:
        with open(os.path.join(args.baselines, spec_name)) as f:
            spec = json.load(f)
        results_path = os.path.join(args.results, spec["results"])
        try:
            with open(results_path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            print(f"FAIL {spec_name}: missing results file {results_path}")
            failures += 1
            continue
        except json.JSONDecodeError as e:
            print(f"FAIL {spec_name}: invalid JSON in {results_path}: {e}")
            failures += 1
            continue

        for check in spec["checks"]:
            checks_run += 1
            try:
                value, rules = run_check(check, doc)
            except KeyError:
                print(f"FAIL {spec['results']} :: {check['path']}: "
                      f"path not found")
                failed_rows.append((spec["results"], check["path"],
                                    "<path not found>", "present"))
                failures += 1
                continue
            ok = all(rule_ok for _, rule_ok in rules)
            status = "ok  " if ok else "FAIL"
            print(f"{status} {spec['results']} :: {check['path']} = "
                  f"{value!r} (want "
                  f"{' and '.join(rule for rule, _ in rules)})")
            if not ok:
                failures += 1
                for rule, rule_ok in rules:
                    if not rule_ok:
                        failed_rows.append((spec["results"], check["path"],
                                            repr(value), rule))

    if failed_rows:
        print_diff_table(failed_rows)
    print(f"\n{checks_run} check(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
