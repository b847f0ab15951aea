#!/usr/bin/env python3
"""Alternating A/B pairs of pipebench runs: a base revision against a change.

Run from the repository root:

    python3 tools/pipebench_ab.py --workload fanout --seeds 1-10 --seconds 20

Exports the two sides with `git archive` into a work directory outside the
repository (each builds its own .bench_build on its first run), then for
every workload and seed runs one pair of

    python3 pipebench/run.py --workload W --seed N --seconds S

alternating which side runs first from pair to pair. The change side
defaults to the working tree as it is, uncommitted edits of tracked files
included (`git stash create`; stage new files first); --change REV measures
a revision instead. The copies are removed at the end unless --keep.

For each workload it prints every end-to-end metric of BENCHMARK.json per
seed, each side's median and quartiles, the change's wins counted in the
metric's `better` direction (ties count for neither side), the ratio of the
medians, the base's IQR, and whether the change's median is worse than the
base's by more than the metric's bound. Beside them it prints the raw,
ungated figures behind the normalisation, per seed and each side's median:
`sim_per_wall` (simulated seconds per wall second of a chunk, before
dividing by host speed) and `ref_round_ms` (the reference round that
measures host speed). The reference round allocates, so heap state the
engine leaves behind can move it; a normalised gain that the raw rate does
not show is suspect. It compares `measured.digest_all`
and `measured.digest_rows` per seed, and exits non-zero on a digest
mismatch, on a run that is not `correct`, or on failed operations.

--record PR appends one point per workload to BENCH_pipeline.json, the
committed wall-clock trajectory at the repository root: {pr, commit,
parent, nproc, cpu, compiler, workload, pairs, seeds, seconds, metrics},
where each gated metric carries the parent's median, the change's median,
their ratio and the pairs the change won. `commit` is null when the change
is the working tree (the point then belongs to the commit that adds it).
Host speed drifts between sessions, so only ratios from one session
compare; chain them across points. Apart from that file it edits nothing
in the repository's working tree, and nothing under pipebench/.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
TRAJECTORY = "BENCH_pipeline.json"

# Ungated figures printed beside the gated ones, from the measured pass.
RAW = (
    ("sim_per_wall", "sim_s/wall_s",
     lambda m: m["chunk_sim_s"] / m["chunk_wall_s_p50"]),
    ("ref_round_ms", "ms", lambda m: m["ref_round_s_p50"] * 1e3),
)


def fail(msg):
    print(f"pipebench_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args, cwd=ROOT):
    p = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"git {' '.join(args)}: {p.stderr.strip()}")
    return p.stdout.strip()


def export(rev, tree):
    """Write revision `rev`'s files into the new directory `tree`."""
    p = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       capture_output=True)
    if p.returncode != 0:
        fail(f"git archive {rev}: {p.stderr.decode().strip()}")
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(p.stdout)) as tar:
        tar.extractall(tree)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_side(tree, workload, seed, seconds):
    """One run.py invocation; returns (result line, measured pass, stamp)."""
    cmd = [sys.executable, "pipebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(p.stdout[-3000:], p.stderr[-3000:], file=sys.stderr)
        fail(f"{' '.join(cmd)} failed in {tree} (exit {p.returncode})")
    result = json.loads(lines[-1])
    saved = tree / ".bench_build" / "runs" / f"{workload}-{seed}-trace0"
    full = json.loads((saved / "result.json").read_text())
    return result, full["measured"], full["stamp"]


def report(workload, metrics, seeds, runs):
    """Print one workload's table and summary; return its problems and,
    per metric, the medians, their ratio and the change's wins."""
    problems = []
    summary = {}
    print(f"\n== {workload}: {len(seeds)} pair(s), seeds "
          f"{','.join(map(str, seeds))}")
    for seed in seeds:
        base, change = runs[seed]["base"], runs[seed]["change"]
        for side, (result, _, _) in (("base", base), ("change", change)):
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: {side} run is not "
                                "correct")
            if result["failed"]:
                problems.append(f"{workload} seed {seed}: {side} run failed "
                                f"{result['failed']} of "
                                f"{result['attempted']} operations")
        digests = [(m["digest_all"], m["digest_rows"])
                   for _, m, _ in (base, change)]
        same = digests[0] == digests[1]
        if not same:
            problems.append(f"{workload} seed {seed}: digests differ "
                            f"{digests[0]} vs {digests[1]}")
        print(f"  seed {seed:3d}: digest {digests[0][0]}/{digests[0][1]} "
              f"{'equal' if same else 'DIFFERS: ' + str(digests[1])}"
              f"  (first: {runs[seed]['first']})")

    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [runs[s]["base"][0]["metrics"][name]["value"] for s in seeds]
        change = [runs[s]["change"][0]["metrics"][name]["value"]
                  for s in seeds]
        print(f"  {name} ({spec['unit']}, {spec['better']} is better)")
        for seed, b, c in zip(seeds, base, change):
            print(f"    seed {seed:3d}: {b:14.4f} -> {c:14.4f}")
        bq, cq = quartiles(base), quartiles(change)
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        losses = sum(1 for b, c in zip(base, change)
                     if (c < b if higher else c > b))
        iqr = bq[2] - bq[0]
        gap = cq[1] - bq[1]
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        worse = -gap if higher else gap
        bound = spec.get("bound")
        out_of_bound = (bound is not None and bq[1] != 0 and
                        worse / abs(bq[1]) > bound)
        print(f"    base   median {bq[1]:.4f}  quartiles [{bq[0]:.4f}, "
              f"{bq[2]:.4f}]  IQR {iqr:.4f}")
        print(f"    change median {cq[1]:.4f}  quartiles [{cq[0]:.4f}, "
              f"{cq[2]:.4f}]")
        summary[name] = {"parent": float(f"{bq[1]:.6g}"),
                         "change": float(f"{cq[1]:.6g}"),
                         "ratio": round(ratio, 4), "won": wins}
        print(f"    change wins {wins}/{len(seeds)} (losses {losses}), "
              f"median ratio {ratio:.3f}, |median gap| "
              f"{'>' if abs(gap) > iqr else '<='} base IQR"
              + (f", WORSE THAN BOUND {bound}" if out_of_bound else ""))

    for name, unit, value in RAW:
        base = [value(runs[s]["base"][1]) for s in seeds]
        change = [value(runs[s]["change"][1]) for s in seeds]
        print(f"  {name} ({unit}, raw, not gated)")
        for seed, b, c in zip(seeds, base, change):
            print(f"    seed {seed:3d}: {b:14.4f} -> {c:14.4f}")
        bm, cm = statistics.median(base), statistics.median(change)
        print(f"    base median {bm:.4f}, change median {cm:.4f}, ratio "
              f"{cm / bm if bm else float('nan'):.3f}")
    return problems, summary


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record_point(path, pr, commit, parent, stamp, workload, seeds, seconds,
                 summary):
    """Append one workload's point to the trajectory file at `path`."""
    points = json.loads(path.read_text()) if path.exists() else []
    points.append({
        "pr": pr, "commit": commit, "parent": parent,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "compiler": stamp["compiler"], "workload": workload,
        "pairs": len(seeds), "seeds": ",".join(map(str, seeds)),
        "seconds": seconds, "metrics": summary,
    })
    # One point per block, one metric per line.
    text = json.dumps(points, indent=1)
    text = re.sub(r"\{\n\s+(\"(?:parent|ratio)\"[^{}]*?)\n\s+\}",
                  lambda m: "{" + re.sub(r"\n\s+", " ", m.group(1)) + "}",
                  text)
    path.write_text(text + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="base revision (default: HEAD)")
    ap.add_argument("--change", default=None,
                    help="change revision (default: the working tree)")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every "
                         "workload in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10",
                    help="one pair per seed, e.g. 1-10 or 1,3,11")
    ap.add_argument("--seconds", type=float, default=None,
                    help="simulated seconds per run (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--workdir", default=None,
                    help="directory for the two copies, outside the "
                         "repository (default: a new temporary one)")
    ap.add_argument("--keep", action="store_true",
                    help="leave the copies (and their builds) in place")
    ap.add_argument("--record", type=int, metavar="PR", default=None,
                    help="append each workload's medians to "
                         f"{TRAJECTORY} as PR's point")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    repo = Path(git("rev-parse", "--show-toplevel")).resolve()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="pipebench_ab."))
    workdir = workdir.resolve()
    if workdir == repo or repo in workdir.parents:
        fail(f"--workdir {workdir} is inside the repository")
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    if args.change:
        change_rev = git("rev-parse", "--verify", args.change + "^{commit}")
    else:
        # A commit object of the working tree's tracked state; the working
        # tree, index and stash list stay as they are.
        change_rev = git("stash", "create") or git("rev-parse", "HEAD")

    workdir.mkdir(parents=True, exist_ok=True)
    trees = {"base": workdir / "base", "change": workdir / "change"}
    print(f"pipebench_ab: base {base_rev[:12]} vs change {change_rev[:12]}, "
          f"{seconds:g} s runs, copies under {workdir}")
    problems = []
    try:
        for side, rev in (("base", base_rev), ("change", change_rev)):
            export(rev, trees[side])
        for workload in workloads:
            runs = {}
            for k, seed in enumerate(seeds):
                order = ("base", "change") if k % 2 == 0 else ("change",
                                                               "base")
                runs[seed] = {"first": order[0]}
                for side in order:
                    runs[seed][side] = run_side(trees[side], workload, seed,
                                                seconds)
                    print(f"  ran {workload} seed {seed} on {side}: "
                          f"correct={runs[seed][side][0]['correct']}",
                          flush=True)
            found, summary = report(workload, bench["end_to_end"], seeds,
                                    runs)
            problems += found
            if args.record is not None:
                record_point(repo / TRAJECTORY, args.record,
                             change_rev if args.change else None, base_rev,
                             runs[seeds[0]]["change"][2], workload, seeds,
                             seconds, summary)
    finally:
        if not args.keep:
            for tree in trees.values():
                shutil.rmtree(tree, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"pipebench_ab: {'FAILED' if problems else 'ok'}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
