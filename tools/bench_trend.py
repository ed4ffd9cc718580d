#!/usr/bin/env python3
"""Perf-trend gate over the BENCH_*.json artifacts.

Compares the current commit's benchmark artifacts against the previous
commit's (any directory of BENCH_*.json files — in CI, the restored
baseline cache) and fails when a tracked metric regresses by more than
the threshold. Rows are matched across commits by their identity columns
(everything that is not a tracked metric), so adding a new row size or
mix is never itself a "regression" — only a matched row moving the wrong
way is.

Tracked metrics (direction matters):
  merged_qps          higher is better   (bench_merge_query)
  snapshot_delta_ms   lower is better    (bench_service_throughput)
  stream_peak_stores  lower is better    (bench_merge_query)
  p99_us              lower is better    (ycsb_driver, table "ycsb")
  bytes_per_label     lower is better    (bench_service_throughput,
                                          bench_merge_query,
                                          bench_fig17_label_length,
                                          bench_fig21_multiview_space)
  index_bytes         lower is better    (bench_fig17_label_length,
                                          bench_fig21_multiview_space)
  session_bytes_per_item
                      lower is better    (bench_service_throughput, table
                                          "session_memory")

A tracked metric that the baseline row has but the current artifact lost is
a hard failure (exit 2), not a silent skip: a bench rename or a dropped
column would otherwise turn the gate off without anyone noticing. The
reverse direction — a metric present now but absent from the baseline — is
fine; that is just a new metric phasing in.

A baseline value of exactly 0 (a fast machine rounding snapshot_delta_ms
down, say) has no percentage scale. Those comparisons are gated on absolute
worsening (--zero-epsilon) instead, and logged with a loud [ skipped ]
marker when within it — never silently ungated.

Usage:
  tools/bench_trend.py --current . --baseline bench-baseline [--threshold 20]

Exit codes: 0 ok (including "no baseline yet"), 1 regression, 2 bad input
(including a tracked metric missing from a current row its baseline had).
"""

import argparse
import glob
import json
import math
import os
import sys

# metric -> True when higher is better.
TRACKED = {
    "merged_qps": True,
    "snapshot_delta_ms": False,
    "stream_peak_stores": False,
    "p99_us": False,
    "bytes_per_label": False,
    "index_bytes": False,
    "mapped_qps": True,    # bench_mmap_serve: warm mmap-served throughput
    "compact_ms": False,   # bench_mmap_serve: CompactFiles wall time
    "session_bytes_per_item": False,  # bench_service_throughput
}

# Columns that identify a row's configuration across commits. Everything
# else in a row is a measured value and would never reproduce exactly, so
# it must not take part in row matching.
ID_COLUMNS = {"runs", "total_items", "run_size", "checkpoints", "queries",
              "mix", "dist", "threads", "num_views", "sessions"}

# Measured columns the gate deliberately does not track (too noisy, or
# redundant with a tracked metric). Every column a bench emits must appear
# in exactly one of TRACKED / ID_COLUMNS / KNOWN_UNTRACKED —
# tools/fvl_lint.py cross-checks the bench sources against this union, so
# adding a bench column without deciding its gating status fails CI.
KNOWN_UNTRACKED = {
    "one_at_a_time_qps", "locked_qps", "batched_qps", "speedup",
    "snapshot_total_ms", "delta_speedup", "reassemble_ms", "mat_merge_ms",
    "mat_peak_stores", "stream_merge_ms", "merge_ms", "per_run_batched_qps",
    "speedup_vs_loop", "point_ops", "qps", "p50_us", "p95_us", "mean_batch",
    "net_pct_of_locked", "cached_qps", "hit_rate",
    # Figure-bench label-length curves and the v1-tail comparison columns:
    # per-label bit curves restate the paper figures (the gate tracks the
    # serialized byte cost instead), and the v1 columns are a fixed formula
    # over the same arena, redundant with bytes_per_label.
    "fvl_avg_bits", "fvl_max_bits", "drl_avg_bits", "drl_max_bits",
    "fvl_bits", "drl_bits", "v1_bytes_per_label", "space_saving_pct",
    # bench_mmap_serve: heap/cold qps restate mapped_qps's comparison
    # points; archive size and the compaction peak are covered by
    # index_bytes/stream_peak_stores-style metrics elsewhere.
    "heap_qps", "mapped_cold_qps", "mapped_pct_of_heap", "archive_kb",
    "compact_peak_stores",
    # bench_fig17_label_length: stats-only baseline for a future prefix
    # dictionary coder (fraction of label arena bits shared with the
    # previous item's label prefix).
    "prefix_dupe_ratio",
}


def load_artifacts(directory):
    """{basename: parsed json} for every BENCH_*.json under directory."""
    artifacts = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                artifacts[os.path.basename(path)] = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            print(f"bench_trend: cannot parse {path}: {error}")
            sys.exit(2)
    return artifacts


def indexed_rows(document):
    """{(table, row-identity): {metric: value}} for one artifact.

    Row identity is the tuple of (column, value) pairs over the
    configuration columns — ID_COLUMNS plus any string-valued cell, e.g.
    ("mix", "read_heavy"), ("dist", "zipfian"), ("threads", 8).
    """
    rows = {}
    for table in document.get("tables", []):
        name = table.get("table", "?")
        for row in table.get("rows", []):
            identity = tuple(
                sorted((k, v) for k, v in row.items()
                       if k in ID_COLUMNS or isinstance(v, str))
            )
            metrics = {
                k: v
                for k, v in row.items()
                if k in TRACKED and isinstance(v, (int, float))
            }
            if metrics:
                rows[(name, identity)] = metrics
    return rows


def describe(identity):
    return ", ".join(f"{k}={v}" for k, v in identity)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", default=".",
                        help="directory holding this commit's BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="directory holding the previous commit's artifacts")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="allowed regression in percent (default 20)")
    parser.add_argument("--zero-epsilon", type=float, default=1.0,
                        help="allowed absolute worsening when the baseline "
                             "value is exactly 0, where a percentage is "
                             "undefined (default 1)")
    args = parser.parse_args()

    current = load_artifacts(args.current)
    if not current:
        print(f"bench_trend: no BENCH_*.json under {args.current}")
        sys.exit(2)
    if not os.path.isdir(args.baseline):
        print(f"bench_trend: no baseline at {args.baseline} — first run, "
              "nothing to compare against")
        sys.exit(0)
    baseline = load_artifacts(args.baseline)
    if not baseline:
        print(f"bench_trend: baseline {args.baseline} holds no artifacts — "
              "nothing to compare against")
        sys.exit(0)

    regressions = []
    lost_metrics = []
    compared = 0
    for filename, document in sorted(current.items()):
        if filename not in baseline:
            print(f"bench_trend: {filename}: new artifact, no baseline")
            continue
        old_rows = indexed_rows(baseline[filename])
        for key, metrics in sorted(indexed_rows(document).items()):
            table, identity = key
            old_metrics = old_rows.get(key)
            if old_metrics is None:
                continue  # new row shape (e.g. a new size point)
            for metric in sorted(set(old_metrics) - set(metrics)):
                # The baseline gated on this metric; losing it silently
                # would disable the gate.
                lost_metrics.append((filename, table, identity, metric))
            for metric, value in sorted(metrics.items()):
                old = old_metrics.get(metric)
                if old is None:
                    continue  # new metric phasing in; gated from next run
                higher_is_better = TRACKED[metric]
                if old == 0:
                    # A zero baseline has no percentage scale — a metric
                    # like snapshot_delta_ms legitimately rounds to 0 on a
                    # fast machine. Gate it on absolute worsening instead
                    # of silently ungating it forever, and say so loudly
                    # either way.
                    worse = (old - value) if higher_is_better else (value - old)
                    regressed = worse > args.zero_epsilon
                    compared += 1
                    marker = "REGRESSION" if regressed else "skipped"
                    print(f"  [{marker:>10}] {filename} {table} "
                          f"({describe(identity)}) {metric}: "
                          f"{old:g} -> {value:g} (zero baseline: no % "
                          f"scale, absolute epsilon {args.zero_epsilon:g})")
                    if regressed:
                        regressions.append((filename, table, identity,
                                            metric, old, value,
                                            float("inf")))
                    continue
                change = 100.0 * (value - old) / old
                regressed = (change < -args.threshold if higher_is_better
                             else change > args.threshold)
                compared += 1
                marker = "REGRESSION" if regressed else "ok"
                print(f"  [{marker:>10}] {filename} {table} "
                      f"({describe(identity)}) {metric}: "
                      f"{old:g} -> {value:g} ({change:+.1f}%)")
                if regressed:
                    regressions.append((filename, table, identity, metric,
                                        old, value, change))

    print(f"bench_trend: compared {compared} metric value(s), "
          f"{len(regressions)} regression(s) beyond {args.threshold:g}%")
    if lost_metrics:
        for filename, table, identity, metric in lost_metrics:
            print(f"bench_trend: FAIL {filename} {table} "
                  f"({describe(identity)}): tracked metric '{metric}' is in "
                  "the baseline but missing from the current artifact — a "
                  "bench stopped emitting it (rename? dropped column?)")
        sys.exit(2)
    if regressions:
        for filename, table, identity, metric, old, value, change in regressions:
            scale = (f"{change:+.1f}%, threshold {args.threshold:g}%"
                     if math.isfinite(change) else
                     f"zero baseline, absolute epsilon {args.zero_epsilon:g}")
            print(f"bench_trend: FAIL {filename} {table} "
                  f"({describe(identity)}) {metric} {old:g} -> {value:g} "
                  f"({scale})")
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
