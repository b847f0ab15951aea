#!/usr/bin/env python3
"""Symbolize and summarize tools/heap_profile.c reports, or diff two.

It reads tools/alloc_count.c's per-site reports (ALLOC_COUNT_SITES=N) the
same way: there a site's blocks are the allocations it made and its MB the
bytes they requested, and groups sort by allocations instead of MB.

heap_profile.c prints the top allocation sites by live bytes at the peak
(or, with HEAP_PROFILE_AT=exit, at the end of the program's work), each
frame as module+offset. This script resolves every frame with
`addr2line -Cfe MODULE OFFSET...` (one batch per module), groups the sites
by their first `aorta::` frame (the innermost engine function on the
stack) and prints, per group, the live MB, the blocks and the bytes per
block, largest first:

    python3 tools/heap_report.py report.txt
    python3 tools/heap_report.py base.txt change.txt     # diff, by group

--match REGEX keeps only sites with a frame whose function matches (e.g.
'shard::Worker' for the worker side of a sharded plane); --depth N groups
by the first N aorta:: frames instead of one; --sites also prints each
site's frames under its group. Sites without an aorta:: frame group under
"(no aorta:: frame)". The modules must still exist at the paths the report
names (profile and summarize the same build).
"""

import argparse
import re
import subprocess
import sys
from collections import defaultdict

HEADER = re.compile(r"^#(\d+) ([0-9.]+) MB in (\d+) blocks")
TITLE = re.compile(r"^heap_profile: .*?(exit snapshot|snapshot at) ([0-9.]+) MB")
COUNT_HEADER = re.compile(r"^#(\d+) (\d+) allocs (\d+) bytes")
COUNT_TITLE = re.compile(r"^alloc_count: allocs=(\d+)")
FRAME = re.compile(r"^\s+(\S+)\+0x([0-9a-f]+)$")
NO_AORTA = "(no aorta:: frame)"


def parse(path):
    """One report: (snapshot kind, its live MB, sites), each site
    {mb, blocks, frames: [(module, offset)]}. The kind is "peak" or "exit"
    (HEAP_PROFILE_AT=exit), or "allocs" for an alloc_count report, whose
    second field is then the process's allocation count."""
    kind, live, sites = "peak", 0.0, []
    with open(path, errors="replace") as f:
        for line in f:
            m = TITLE.match(line)
            if m:
                kind = "exit" if m.group(1) == "exit snapshot" else "peak"
                live = float(m.group(2))
                continue
            m = COUNT_TITLE.match(line)
            if m:
                kind, live = "allocs", float(m.group(1))
                continue
            m = HEADER.match(line)
            if m:
                sites.append({"mb": float(m.group(2)),
                              "blocks": int(m.group(3)), "frames": []})
                continue
            m = COUNT_HEADER.match(line)
            if m:
                sites.append({"mb": int(m.group(3)) / 1e6,
                              "blocks": int(m.group(2)), "frames": []})
                continue
            m = FRAME.match(line)
            if m and sites:
                sites[-1]["frames"].append((m.group(1), int(m.group(2), 16)))
    return kind, live, sites


def symbolize(sites):
    """{(module, offset): function name}, one addr2line call per module."""
    by_module = defaultdict(set)
    for site in sites:
        for module, offset in site["frames"]:
            by_module[module].add(offset)
    names = {}
    for module, offsets in by_module.items():
        ordered = sorted(offsets)
        try:
            p = subprocess.run(
                ["addr2line", "-Cfe", module],
                input="".join(f"0x{o:x}\n" for o in ordered),
                capture_output=True, text=True, timeout=300)
            lines = p.stdout.splitlines()
        except (OSError, subprocess.TimeoutExpired):
            lines = []
        # Two lines per address: the function, then file:line.
        for i, offset in enumerate(ordered):
            fn = lines[2 * i] if 2 * i < len(lines) else "??"
            names[(module, offset)] = fn
    return names


def short(fn):
    """A function name without its return type, template arguments and
    parameter list: "aorta::query::compile", "std::vector::emplace_back"."""
    fn = fn.replace("(anonymous namespace)", "{anon}")
    out, depth = [], 0
    for ch in fn:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            if ch == "(":
                break
            out.append(ch)
    name = "".join(out).strip().split(" ")[-1]
    return name.replace("{anon}", "(anonymous namespace)")


def group(sites, names, depth, match):
    """{group key: [mb, blocks, [site, ...]]} for the sites kept."""
    groups = defaultdict(lambda: [0.0, 0, []])
    pattern = re.compile(match) if match else None
    for site in sites:
        fns = [names.get(frame, "??") for frame in site["frames"]]
        if pattern and not any(pattern.search(fn) for fn in fns):
            continue
        engine = [name for name in map(short, fns)
                  if name.startswith("aorta::")]
        key = " <- ".join(engine[:depth]) if engine else NO_AORTA
        g = groups[key]
        g[0] += site["mb"]
        g[1] += site["blocks"]
        g[2].append((site, fns))
    return groups


def per_block(mb, blocks):
    return f"{mb * 1e6 / blocks:.0f}" if blocks else "-"


def print_summary(groups, top, show_sites, counts):
    total_mb = sum(g[0] for g in groups.values())
    total_blocks = sum(g[1] for g in groups.values())
    blk = "allocs" if counts else "blocks"
    print(f"{'MB':>9} {blk:>10} {'B/' + blk[:-1]:>8}  group")
    rank = 1 if counts else 0
    ordered = sorted(groups.items(), key=lambda kv: -kv[1][rank])
    for key, (mb, blocks, sites) in ordered[:top]:
        print(f"{mb:9.2f} {blocks:10d} {per_block(mb, blocks):>8}  {key}")
        if show_sites:
            for site, fns in sites:
                print(f"{'':>9} {site['blocks']:10d} "
                      f"{per_block(site['mb'], site['blocks']):>8}    "
                      f"{site['mb']:.2f} MB")
                for fn in fns:
                    print(f"{'':>34}{short(fn)}")
    rest = ordered[top:]
    if rest:
        mb = sum(g[0] for _, g in rest)
        blocks = sum(g[1] for _, g in rest)
        print(f"{mb:9.2f} {blocks:10d} {per_block(mb, blocks):>8}  "
              f"({len(rest)} more groups)")
    print(f"{total_mb:9.2f} {total_blocks:10d} "
          f"{per_block(total_mb, total_blocks):>8}  total of the sites "
          "listed")


def print_diff(base, change, top, counts):
    keys = set(base) | set(change)
    zero = [0.0, 0, []]
    rows = []
    rank = 1 if counts else 0
    for key in keys:
        b = base.get(key, zero)
        c = change.get(key, zero)
        rows.append((c[rank] - b[rank], key, b, c))
    # Bytes: largest drop first. Allocations: largest change either way.
    rows.sort(key=lambda r: (-abs(r[0]) if counts else r[0], r[1]))
    blk = "alc" if counts else "blk"
    print(f"{'base MB':>9} {'change MB':>9} {'delta':>8} {'base ' + blk:>9} "
          f"{'chg ' + blk:>9} {'B/' + blk:>6} {'B/' + blk:>6}  group")
    for delta, key, b, c in rows[:top]:
        print(f"{b[0]:9.2f} {c[0]:9.2f} {c[0] - b[0]:+8.2f} {b[1]:9d} "
              f"{c[1]:9d} {per_block(b[0], b[1]):>6} "
              f"{per_block(c[0], c[1]):>6}  {key}")
    if len(rows) > top:
        print(f"({len(rows) - top} more groups)")
    tb = sum(g[0] for g in base.values())
    tc = sum(g[0] for g in change.values())
    print(f"{tb:9.2f} {tc:9.2f} {tc - tb:+8.2f} "
          f"{sum(g[1] for g in base.values()):9d} "
          f"{sum(g[1] for g in change.values()):9d} {'':>6} {'':>6}  "
          "total of the sites listed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", help="one report, or base and change")
    ap.add_argument("--depth", type=int, default=1,
                    help="aorta:: frames per group key (default 1)")
    ap.add_argument("--match", default="",
                    help="keep only sites with a frame matching this regex")
    ap.add_argument("--top", type=int, default=40, help="groups printed")
    ap.add_argument("--sites", action="store_true",
                    help="print each site's frames under its group")
    args = ap.parse_args()
    if len(args.reports) > 2:
        ap.error("give one report, or two to diff")
    parsed = [parse(path) for path in args.reports]
    for path, (kind, live, _) in zip(args.reports, parsed):
        if kind == "allocs":
            print(f"{path}: alloc_count sites, {live:.0f} allocations")
        else:
            print(f"{path}: {kind} snapshot, {live:.2f} MB live")
    kinds = {kind for kind, _, _ in parsed}
    if "allocs" in kinds and len(kinds) > 1:
        ap.error("cannot diff an alloc_count report against a heap profile")
    if len(kinds) > 1:
        print("warning: diffing a peak snapshot against an exit snapshot")
    counts = kinds == {"allocs"}
    names = symbolize([site for _, _, sites in parsed for site in sites])
    groups = [group(sites, names, args.depth, args.match)
              for _, _, sites in parsed]
    if len(groups) == 1:
        print_summary(groups[0], args.top, args.sites, counts)
    else:
        print_diff(groups[0], groups[1], args.top, counts)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
