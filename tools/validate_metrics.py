#!/usr/bin/env python3
"""Schema validation for a MetricsRegistry JSON snapshot.

Hand-rolled (stdlib only) validator for the document
MetricsRegistry::write_json / QueryService::stats_json renders:

  * the whole document is one JSON object of nested objects;
  * every leaf is a number or a boolean (counters/gauges), except
    histogram leaves, which are objects holding at least
    {"count", "p50", "p99", "max"} (plus the optional bucket export);
  * object keys at every level are in sorted order — the determinism
    guarantee ("same counters in, same bytes out") depends on it;
  * the canonical system sections are present, and every engine slice
    of a sharded snapshot ("shard.<i>") publishes the engine sections.

Usage: validate_metrics.py SNAPSHOT.json [SNAPSHOT2.json ...]
"""

import json
import sys

REQUIRED_SECTIONS = {"admission", "eval", "health", "network", "scan_broker",
                     "sessions", "sync"}
# Every engine slice (core::Engine) enrolls one schema: the host's at the
# top level, worker i's under "shard.<i>".
SLICE_SECTIONS = {"eval", "health", "network", "scan_broker", "sync"}
HISTOGRAM_KEYS = {"count", "p50", "p99", "max"}
# Present only in sharded snapshots: the reliable backplane's dispatcher
# counters and replay-buffer gauges (DESIGN.md §14). When a "net" section
# exists at all, these leaves must be under net.reliable.
RELIABLE_KEYS = {"calls", "attempts", "retries", "giveups",
                 "budget_exhausted", "replay_depth", "replay_hwm"}
# Shared-aggregate cache (DESIGN.md §15). Wherever an "agg_cache" section
# appears (engine-level "broker.agg_cache" or a worker's re-rooted
# "shard.N.broker.agg_cache"), it must carry the sharing counters; an
# "agg" section under any "eval" must carry the evaluation counters.
AGG_CACHE_KEYS = {"hits", "misses", "subsumptions", "live_windows"}
AGG_EVAL_KEYS = {"tuples_evaluated", "emissions", "panes_closed"}


def fail(path, msg):
    print(f"{path}: INVALID: {msg}")
    return 1


def is_histogram(node):
    return isinstance(node, dict) and HISTOGRAM_KEYS <= set(node)


def check_node(path, node, where):
    if is_histogram(node):
        for k in HISTOGRAM_KEYS:
            v = node[k]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                return fail(path, f"{where}.{k}: histogram field must be a "
                                  f"number, got {v!r}")
        return 0
    if isinstance(node, dict):
        keys = list(node)
        if keys != sorted(keys):
            return fail(path, f"{where}: keys not sorted: {keys}")
        for k, v in node.items():
            rc = check_node(path, v, f"{where}.{k}")
            if rc:
                return rc
        return 0
    if isinstance(node, bool) or isinstance(node, (int, float)):
        return 0
    return fail(path, f"{where}: leaf must be number/bool/histogram, "
                      f"got {type(node).__name__}")


def check_agg_sections(path, node, where):
    """Recursively enforce the aggregate-cache schema; returns #violations."""
    if not isinstance(node, dict) or is_histogram(node):
        return 0
    rc = 0
    for k, v in node.items():
        if k == "agg_cache" and isinstance(v, dict):
            missing = AGG_CACHE_KEYS - set(v)
            if missing:
                rc += fail(path, f"{where}.{k} missing: {sorted(missing)}")
        if k == "eval" and isinstance(v, dict):
            agg = v.get("agg")
            if isinstance(agg, dict):
                missing = AGG_EVAL_KEYS - set(agg)
                if missing:
                    rc += fail(path,
                               f"{where}.{k}.agg missing: {sorted(missing)}")
        rc += check_agg_sections(path, v, f"{where}.{k}")
    return rc


def validate(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or not JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    missing = REQUIRED_SECTIONS - set(doc)
    if missing:
        return fail(path, f"missing sections: {sorted(missing)}")
    for name, node in doc.get("shard", {}).items():
        if not name.isdigit():
            continue  # the czar's section
        missing = SLICE_SECTIONS - set(node)
        if missing:
            return fail(path, f"shard.{name} missing: {sorted(missing)}")
    if "net" in doc:
        reliable = doc["net"].get("reliable")
        if not isinstance(reliable, dict):
            return fail(path, "net section lacks a reliable subsection")
        missing = RELIABLE_KEYS - set(reliable)
        if missing:
            return fail(path, f"net.reliable missing: {sorted(missing)}")
    rc = check_node(path, doc, "$")
    if rc:
        return rc
    if check_agg_sections(path, doc, "$"):
        return 1
    print(f"{path}: OK ({len(doc)} top-level sections)")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    rc = 0
    for path in argv[1:]:
        rc |= validate(path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
