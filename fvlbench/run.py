#!/usr/bin/env python3
"""Repository benchmark: builds fvlbench from source, runs one workload in
several fresh processes (address-space layouts) one after another, checks
that every answer was correct, and prints the metrics.

    python3 fvlbench/run.py --workload query_uniform --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones from a traced run, after a self-time table.
Workloads, metrics and the predictions that tie them together are described
in fvlbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("query_uniform", "query_zipfian", "ingest_archive")
# Fresh processes per run. A single process lands anywhere in a ~±20%
# throughput band depending on its heap/stack layout; pooling several
# sequential processes averages that out instead of pinning one layout.
LAYOUTS = 8
CHILD_TIMEOUT_S = 60


def fail(message):
    print("fvlbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "fvl", "CMakeLists.txt")):
        fail("library sources (src/fvl) not found next to fvlbench/")
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                           "--target", "fvlbench"],
                          stdout=log, stderr=log).returncode:
            fail("build failed; see " + log_path)
    return os.path.join(cmake_dir, "fvlbench")


def run_layouts(binary, args, workdir):
    """Runs LAYOUTS child processes in sequence; returns their JSON lines."""
    per_child = args.seconds / LAYOUTS
    trace_dir = os.path.join(BUILD, "traces")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    samples = []
    for layout in range(LAYOUTS):
        child_dir = os.path.join(workdir, str(layout))
        os.makedirs(child_dir)
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(per_child),
                   "--trace", str(args.trace), "--workdir", child_dir]
        if args.trace:
            command += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d-layout%d.jsonl" %
                (args.workload, args.seed, layout))]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("layout %d timed out" % layout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail("layout %d exited with %d" % (layout, done.returncode))
        samples.append(json.loads(lines[-1]))
    return samples


def percentile(values, q):
    """Nearest-rank percentile of raw samples (exact, no bucketing)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def total(samples, key):
    return sum(s[key] for s in samples)


def spread(values):
    mean = statistics.fmean(values)
    return (max(values) - min(values)) / mean if mean else 0.0


def per_layout(samples, key, statistic, combine=statistics.fmean):
    """A statistic of each layout's own samples, combined over layouts.

    Within one process a window's or call's latency sits at a level set by
    that process's layout; pooling the samples first would make a central
    percentile jump between those levels, while their mean averages them.
    """
    return combine([statistic(s[key]) for s in samples])


def end_to_end(samples):
    def p(q):
        return lambda values: percentile(values, q)

    # A kApply round trip is two loopback wake-ups, and how fast the shared
    # host wakes a vCPU drifts on a scale of seconds: in a disturbed process
    # a tenth of the calls wait 50-250 us more, which moves the mean and the
    # tail but not the median. The ingest rate and the apply tail therefore
    # take the least disturbed process (the best of the layouts), the way a
    # repeated timing takes its minimum; layout moves them only a few percent.
    return {
        "query_qps": (total(samples, "queries") / total(samples, "seconds"),
                      "1/s"),
        "query_p50_ms": (per_layout(samples, "latency_us", p(0.50)) / 1e3,
                         "ms"),
        "query_p90_ms": (per_layout(samples, "latency_us", p(0.90)) / 1e3,
                         "ms"),
        "ingest_items_per_s": (max(s["ingest_items"] / s["ingest_seconds"]
                                   for s in samples), "1/s"),
        "apply_p50_us": (per_layout(samples, "apply_us", p(0.50)), "us"),
        "apply_p90_us": (per_layout(samples, "apply_us", p(0.90), min), "us"),
        "compact_ms": (per_layout(samples, "compact_ms", statistics.median),
                       "ms"),
        "sweep_items_per_s": (total(samples, "sweep_items") /
                              (total(samples, "sweep_us") / 1e6), "1/s"),
        "archive_bytes_per_item": (total(samples, "archive_bytes") /
                                   total(samples, "archive_items"), "B"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples),
                        "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
    }


def layout_report(samples, workload):
    """Per-layout throughput, so the layout spread of a run is visible."""
    if workload == "ingest_archive":
        key, items, seconds = "ingest_items_per_s", "ingest_items", "ingest_seconds"
        if "untraced_ingest_items" in samples[0]:
            items, seconds = "untraced_ingest_items", "untraced_ingest_seconds"
    else:
        key, items, seconds = "query_qps", "queries", "seconds"
        if "untraced_queries" in samples[0]:
            items, seconds = "untraced_queries", "untraced_seconds"
    rates = [s[items] / s[seconds] for s in samples]
    print("%s per layout: %s  (max-min)/mean = %.3f" %
          (key, " ".join("%.0f" % r for r in rates), spread(rates)))


def sum_trace(samples, key):
    out = {}
    for s in samples:
        for k, v in s[key].items():
            out[k] = out.get(k, 0) + v
    return out


def per_layer(samples, workload):
    """Per-layer metrics and the self-time tables of a traced run."""
    q = sum_trace(samples, "query_trace")
    g = sum_trace(samples, "ingest_trace")
    if workload == "ingest_archive":
        untraced = (total(samples, "untraced_ingest_items") /
                    total(samples, "untraced_ingest_seconds"))
        traced = g["traced_items"] / g["traced_seconds"]
        rate_name = "ingest_items_per_s"
    else:
        untraced = (total(samples, "untraced_queries") /
                    total(samples, "untraced_seconds"))
        traced = (total(samples, "traced_queries") /
                  total(samples, "traced_seconds"))
        rate_name = "query_qps"

    # Self time = span minus its attributed children, floored at zero; an
    # attribution that overshoots its parent shows up as a negative
    # remainder in the tables below.
    n = q["queries"]
    net_self = max(0.0, q["window_us"] - q["batch_us"])
    core_attr = q["cursor_attr_us"] + q["predicate_attr_us"]
    service_self = max(0.0, q["batch_us"] - core_attr)
    net_apply_self = max(0.0, g["apply_rtt_us"] - g["service_apply_us"])
    service_apply_self = max(0.0, g["service_apply_us"] - g["core_apply_us"])
    label_lookups = q["label_hits"] + q["label_misses"]
    reach_lookups = q["reach_hits"] + q["reach_misses"]
    steps = g["steps"]
    compactions = g["compactions"]
    metrics = {
        "net.self_us_per_query": (net_self / n, "us"),
        "net.mean_batch": (q["point_queries"] / q["point_batches"], "count"),
        "net.apply_self_us": (net_apply_self / steps, "us"),
        "service.batch_us_per_query": (q["batch_us"] / n, "us"),
        "service.self_us_per_query": (service_self / n, "us"),
        "service.label_hit_rate": (q["label_hits"] / label_lookups, "ratio"),
        "service.label_hits": (q["label_hits"], "count"),
        "service.label_lookups": (label_lookups, "count"),
        "service.reach_hit_rate": (q["reach_hits"] / reach_lookups, "ratio"),
        "service.reach_hits": (q["reach_hits"], "count"),
        "service.reach_lookups": (reach_lookups, "count"),
        "service.apply_self_us": (service_apply_self / steps, "us"),
        "service.compact_ms": (g["compact_service_ms"] / compactions, "ms"),
        "core.cursor_decode_us_per_item": (q["cursor_us"] / q["distinct"], "us"),
        "core.random_decode_us_per_item": (q["random_us"] / q["distinct"], "us"),
        "core.distinct_items_per_query": (q["distinct"] / n, "count"),
        "core.predicate_us_per_pair": (q["predicate_us"] / n, "us"),
        "core.decode_share_of_batch": (q["cursor_attr_us"] / q["batch_us"],
                                       "ratio"),
        "core.apply_us_per_step": (g["core_apply_us"] / steps, "us"),
        "core.snapshot_delta_us": (g["delta_us"] / g["deltas"], "us"),
        "core.label_bits_per_item": (g["label_bits"] / g["label_items"], "count"),
        "core.sweep_decode_us_per_item": (g["sweep_decode_us"] /
                                          g["sweep_items"], "us"),
        "util.map_ms": (g["map_ms"] / compactions, "ms"),
        "trace.untraced_per_s": (untraced, "1/s"),
        "trace.traced_per_s": (traced, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced - traced) / untraced, "%"),
    }

    # Self times along the blocking path of a query window and an ingest
    # step. Core children of DependsMany are scaled to the replica cache's
    # misses (NOTES.md).
    def table(title, total_us, rows):
        print("\n%s (%s)" % (title, workload))
        print("  %-34s %12s %12s %8s" % ("span", "total_ms", "self_ms", "share"))
        covered = 0.0
        for name, span_us, self_us in rows:
            covered += self_us
            print("  %-34s %12.1f %12.1f %7.1f%%" %
                  (name, span_us / 1e3, self_us / 1e3, 100 * self_us / total_us))
        print("  %-34s %12s %12.1f %7.1f%%" %
              ("remainder", "", (total_us - covered) / 1e3,
               100 * (total_us - covered) / total_us))

    table("query window blocking path", q["window_us"], [
        ("net.window (client round trip)", q["window_us"], net_self),
        ("service.DependsMany", q["batch_us"], service_self),
        ("core.SpanCursor.DecodeAt (attr.)", q["cursor_attr_us"],
         q["cursor_attr_us"]),
        ("core.Decoder.Depends (attr.)", q["predicate_attr_us"],
         q["predicate_attr_us"]),
    ])
    table("ingest step blocking path", g["apply_rtt_us"], [
        ("net.apply (client round trip)", g["apply_rtt_us"], net_apply_self),
        ("service.ProvenanceSession.Apply", g["service_apply_us"],
         service_apply_self),
        ("core.RunLabeler.OnApply", g["core_apply_us"], g["core_apply_us"]),
    ])
    print("\noff-path references: core.LabelStore.DecodeLabel %.3f us/item, "
          "core.SpanCursor.DecodeAt %.3f us/item over %d distinct items" %
          (metrics["core.random_decode_us_per_item"][0],
           metrics["core.cursor_decode_us_per_item"][0], q["distinct"]))
    print("cursor decode is %.1f%% of service.batch_us_per_query" %
          (100 * metrics["core.decode_share_of_batch"][0]))
    print("tracing overhead: %s traced - untraced = %.1f /s (%.2f%%)" %
          (rate_name, traced - untraced, metrics["trace.overhead_pct"][0]))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    # Archives live in a private directory, removed at exit: page-cache
    # numbers, written without fsync (as CompactFiles writes).
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
    try:
        samples = run_layouts(binary, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = total(samples, "attempted")
    failed = total(samples, "failed")
    layout_report(samples, args.workload)
    if args.trace:
        metrics = per_layer(samples, args.workload)
    else:
        metrics = end_to_end(samples)
        for name, (value, unit) in metrics.items():
            print("  %-24s %14.4f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
