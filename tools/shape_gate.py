#!/usr/bin/env python3
"""Shape gates for the paper's figures, read off full-scale bench JSON.

The paper's claims are shapes, not absolute numbers: query time is flat in
run size (Fig. 20) and label length grows logarithmically with it (Fig.
17). A ratio between rows of one run moves little on a noisy host, so the
gates compare rows of the same artifact, never two commits:

  fig20  for each of QueryEff_ns and SpaceEff_ns, the mean of the two
         largest run sizes over the mean of the two smallest is at most
         1.3 (table "query_time" of bench_fig20_query_time).
  fig17  each doubling of the BioAID run size adds between 2 and 5 bits
         to fvl_avg_bits (table "label_length" of
         bench_fig17_label_length).

Only full-scale artifacts are accepted: --quick runs stop at 16K items
and skip sizes, which is not the scale the claims are about.

Usage:
  tools/shape_gate.py --fig20 fig20.json --fig17 fig17.json
  tools/shape_gate.py --self-test

Exit codes: 0 every gate holds, 1 a gate fails, 2 bad input (unreadable
file, --quick artifact, missing table or column, fewer than four run
sizes for fig20, or a fig17 size step that is not a doubling).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FIG20_MAX_RATIO = 1.3
FIG17_MIN_BITS_PER_DOUBLING = 2.0
FIG17_MAX_BITS_PER_DOUBLING = 5.0


class BadInput(Exception):
    pass


def load_rows(path, table, columns):
    """Rows of `table` as (run_size, {column: value}), sorted by size."""
    try:
        with open(path) as f:
            document = json.load(f)
    except (OSError, ValueError) as e:
        raise BadInput("%s: %s" % (path, e))
    if document.get("quick") is not False:
        raise BadInput("%s: not a full-scale artifact (quick=%r)"
                       % (path, document.get("quick")))
    for candidate in document.get("tables", []):
        if candidate.get("table") != table:
            continue
        rows = []
        for row in candidate.get("rows", []):
            for column in ("run_size",) + columns:
                if not isinstance(row.get(column), (int, float)):
                    raise BadInput("%s: table %s row %r has no numeric %s"
                                   % (path, table, row, column))
            rows.append(row)
        return sorted(rows, key=lambda row: row["run_size"])
    raise BadInput("%s: no table %s" % (path, table))


FIG20_COLUMNS = ("QueryEff_ns", "SpaceEff_ns")


def check_fig20(path):
    rows = load_rows(path, "query_time", FIG20_COLUMNS)
    if len(rows) < 4:
        raise BadInput("%s: %d run sizes, need at least 4" % (path, len(rows)))
    failures, lines = [], []
    for column in FIG20_COLUMNS:
        small = (rows[0][column] + rows[1][column]) / 2
        large = (rows[-2][column] + rows[-1][column]) / 2
        ratio = large / small
        line = ("fig20: %s %d-%d items %.1f ns / %d-%d items %.1f ns = "
                "%.3f (max %.2f)" % (column[:-3], rows[-2]["run_size"],
                                     rows[-1]["run_size"], large,
                                     rows[0]["run_size"], rows[1]["run_size"],
                                     small, ratio, FIG20_MAX_RATIO))
        lines.append(line)
        if ratio > FIG20_MAX_RATIO:
            failures.append(line)
    return failures, lines


def check_fig17(path):
    rows = load_rows(path, "label_length", ("fvl_avg_bits",))
    if len(rows) < 2:
        raise BadInput("%s: %d run sizes, need at least 2" % (path, len(rows)))
    failures, lines = [], []
    for before, after in zip(rows, rows[1:]):
        if after["run_size"] != 2 * before["run_size"]:
            raise BadInput("%s: run size %d follows %d, not a doubling"
                           % (path, after["run_size"], before["run_size"]))
        step = after["fvl_avg_bits"] - before["fvl_avg_bits"]
        line = ("fig17: %d -> %d items adds %+.1f avg bits (allowed %.0f to "
                "%.0f)" % (before["run_size"], after["run_size"], step,
                           FIG17_MIN_BITS_PER_DOUBLING,
                           FIG17_MAX_BITS_PER_DOUBLING))
        lines.append(line)
        if not (FIG17_MIN_BITS_PER_DOUBLING <= step
                <= FIG17_MAX_BITS_PER_DOUBLING):
            failures.append(line)
    return failures, lines


def gate(fig20, fig17):
    try:
        failures20, lines20 = check_fig20(fig20)
        failures17, lines17 = check_fig17(fig17)
    except BadInput as e:
        print("[ bad input ] %s" % e)
        return 2
    for line in lines20 + lines17:
        print(line)
    for line in failures20 + failures17:
        print("[ FAILED ] %s" % line)
    return 1 if failures20 or failures17 else 0


# ----- self-test: artifacts shaped like the benches' --json output. -----

SIZES = [1000, 2000, 4000, 8000, 16000, 32000]


def fig20_doc(query_eff_ns, space_eff_ns=None, quick=False):
    space_eff_ns = space_eff_ns or SPACE_FLAT
    rows = [{"run_size": size, "QueryEff_ns": q, "SpaceEff_ns": s}
            for size, q, s in zip(SIZES, query_eff_ns, space_eff_ns)]
    return {"benchmark": "fig20_query_time", "quick": quick,
            "tables": [{"table": "query_time", "rows": rows}]}


def fig17_doc(avg_bits, sizes=SIZES):
    rows = [{"run_size": size, "fvl_avg_bits": bits}
            for size, bits in zip(sizes, avg_bits)]
    return {"benchmark": "fig17_label_length", "quick": False,
            "tables": [{"table": "label_length", "rows": rows}]}


FLAT = [1337.1, 1187.6, 1339.3, 971.4, 1335.2, 1241.4]
SPACE_FLAT = [8736.4, 9209.0, 9091.2, 9784.4, 9884.9, 9868.8]
LOG = [56.6, 60.3, 63.8, 67.0, 70.2, 73.3]

# (name, fig20 document, fig17 document, expected exit code)
CASES = [
    ("measured shapes pass", fig20_doc(FLAT), fig17_doc(LOG), 0),
    ("fig20 ratio 1.31 fails",
     fig20_doc([1000, 1000, 1000, 1000, 1310, 1310]), fig17_doc(LOG), 1),
    ("fig20 ratio 1.30 passes",
     fig20_doc([1000, 1000, 1000, 1000, 1300, 1300]), fig17_doc(LOG), 0),
    ("fig20 SpaceEff ratio 1.31 fails",
     fig20_doc(FLAT, [1000, 1000, 1000, 1000, 1310, 1310]), fig17_doc(LOG),
     1),
    ("fig17 step under 2 bits fails",
     fig20_doc(FLAT), fig17_doc([56.6, 60.3, 63.8, 65.7, 70.2, 73.3]), 1),
    ("fig17 step over 5 bits fails",
     fig20_doc(FLAT), fig17_doc([56.6, 60.3, 63.8, 69.0, 72.2, 75.3]), 1),
    ("quick artifact is bad input",
     fig20_doc(FLAT, quick=True), fig17_doc(LOG), 2),
    ("fig20 without SpaceEff_ns is bad input",
     {"quick": False, "tables": [{"table": "query_time", "rows": [
         {"run_size": s, "QueryEff_ns": 1000} for s in SIZES]}]},
     fig17_doc(LOG), 2),
    ("fig17 size step not a doubling is bad input",
     fig20_doc(FLAT), fig17_doc(LOG[:3], sizes=[1000, 4000, 16000]), 2),
    ("missing table is bad input",
     fig20_doc(FLAT), {"quick": False, "tables": []}, 2),
    ("fig20 with three sizes is bad input",
     {"quick": False, "tables": [{"table": "query_time", "rows": [
         {"run_size": s, "QueryEff_ns": 1000, "SpaceEff_ns": 1000}
         for s in SIZES[:3]]}]},
     fig17_doc(LOG), 2),
]


def self_test():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        fig20 = os.path.join(tmp, "fig20.json")
        fig17 = os.path.join(tmp, "fig17.json")
        for name, doc20, doc17, want in CASES:
            with open(fig20, "w") as f:
                json.dump(doc20, f)
            with open(fig17, "w") as f:
                json.dump(doc17, f)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--fig20", fig20,
                 "--fig17", fig17], capture_output=True, text=True)
            ok = proc.returncode == want
            failed += not ok
            print("[ %s ] %s (exit %d, want %d)"
                  % ("ok" if ok else "FAILED", name, proc.returncode, want))
            if not ok:
                print(proc.stdout + proc.stderr)
    print("self-test: %d of %d cases failed" % (failed, len(CASES)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fig20", help="bench_fig20_query_time --json file")
    parser.add_argument("--fig17", help="bench_fig17_label_length --json file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.fig20 or not args.fig17:
        parser.error("--fig20 and --fig17 are both required")
    return gate(args.fig20, args.fig17)


if __name__ == "__main__":
    sys.exit(main())
