#!/usr/bin/env python3
"""Bench-regression gate.

Compares a freshly produced bench JSON (bench_tracker / bench_table2_shift,
written via VCOMP_BENCH_JSON) against the committed baseline.  Rows are
matched by their identity keys (circuit, and config where present), so a
--quick run is compared only on the rows it actually produced; rows whose
"cycles" field differs from the baseline (a different workload) are
skipped outright.

Two kinds of field:

* timings -- "seconds", "*_seconds", "*_per_sec" and "speedup" -- drift
  with the machine, so they are judged with a +/-tolerance and reported as
  soft warnings (CI shared runners are noisy); the exit code stays 0
  unless --strict is given.  Timings compare only between runs at the
  same thread count (the files' "threads" fields): the benches time their
  rows side by side when the pool has several threads, so a 4-thread run
  against a 1-thread baseline measures contention, not the code.  On a
  mismatch one note is printed and the timings are skipped (an error
  under --strict);
* everything else -- the paper numbers (m, t, tv, ex, paper_best_m), the
  workload shape (gates, lanes, ...), the per-row "counters" objects and
  the serve bench's canonical result "row" -- is deterministic by
  contract, so any mismatch at all is an error and the exit code is 1.

Usage:
  check_bench.py --fresh fresh.json --baseline BENCH_tracker.json \\
                 [--tolerance 0.25] [--strict]
"""

import argparse
import json
import os
import sys

RATE_SUFFIX = "_per_sec"
# Timings below this are scheduler-noise-dominated; never gate them.
MIN_GATED_SECONDS = 1e-3


def is_timing(field):
    return (field == "seconds" or field.endswith("_seconds")
            or field.endswith(RATE_SUFFIX) or field == "speedup")


def load_rows(doc):
    """Returns (row_dict, key_fields) for either bench JSON shape."""
    for array_key, keys in (("circuits", ("circuit",)),
                            ("configs", ("circuit", "config")),
                            ("kernels", ("circuit", "dispatch")),
                            ("jobs", ("circuit", "config"))):
        if array_key in doc:
            rows = {}
            for row in doc[array_key]:
                rows[tuple(row[k] for k in keys)] = row
            return rows, keys
    raise SystemExit(
        "unrecognized bench JSON: no 'circuits', 'configs' or 'kernels'")


def annotate(kind, message):
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::{kind}::{message}")
    else:
        print(f"{kind}: {message}")


def timing_regression(label, field, fval, bval, tol):
    """A soft warning when a timing moved the wrong way beyond tol."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (fval, bval)) or bval == 0:
        return None
    ratio = fval / bval
    if field.endswith(RATE_SUFFIX) or field == "speedup":
        if ratio < 1 - tol:
            return (f"{label} {field}: {fval:.4g} vs baseline {bval:.4g} "
                    f"(-{(1 - ratio) * 100:.0f}%)")
    elif bval >= MIN_GATED_SECONDS and ratio > 1 + tol:
        return (f"{label} {field}: {fval:.4g}s vs baseline {bval:.4g}s "
                f"(+{(ratio - 1) * 100:.0f}%)")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--strict", action="store_true",
                    help="also exit nonzero on timing regressions")
    ap.add_argument("--require-learned-win", action="store_true",
                    help="hard gate (exit 1): the baseline must contain at "
                         "least one row whose m beats its paper_best_m — "
                         "the learned-schedule acceptance contract on the "
                         "committed BENCH_learned.json")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh_doc = json.load(f)
    with open(args.baseline) as f:
        base_doc = json.load(f)

    fresh, keys = load_rows(fresh_doc)
    base, base_keys = load_rows(base_doc)
    if keys != base_keys:
        raise SystemExit("fresh and baseline JSON have different shapes")

    shared = sorted(set(fresh) & set(base))
    if not shared:
        raise SystemExit("no common rows between fresh and baseline")
    for missing in sorted(set(base) - set(fresh)):
        print(f"note: baseline row {missing} absent from fresh run "
              f"(quick mode?)")

    tol = args.tolerance
    regressions = []
    mismatches = []
    fresh_threads = fresh_doc.get("threads")
    base_threads = base_doc.get("threads")
    same_threads = fresh_threads == base_threads
    if not same_threads:
        message = (f"fresh run used {fresh_threads} threads, baseline "
                   f"{base_threads}; timings not compared")
        if args.strict:
            annotate("error", f"bench thread mismatch: {message}")
        else:
            print(f"note: {message}")
    for key in shared:
        frow, brow = fresh[key], base[key]
        label = "/".join(str(k) for k in key)
        # A row is only comparable when it ran the same workload: a
        # --quick tracker run walks fewer cycles than the committed
        # baseline, which skews timings, rates and counters alike.
        if "cycles" in brow and frow.get("cycles") != brow.get("cycles"):
            print(f"note: {label} ran {frow.get('cycles')} cycles vs "
                  f"baseline {brow.get('cycles')}; row skipped "
                  f"(workload mismatch)")
            continue
        for field in sorted((set(brow) | set(frow)) - {"counters"}):
            bval, fval = brow.get(field), frow.get(field)
            if is_timing(field):
                r = same_threads and timing_regression(label, field, fval,
                                                       bval, tol)
                if r:
                    regressions.append(r)
            elif fval != bval:
                mismatches.append(f"{label} {field}: {fval!r} vs baseline "
                                  f"{bval!r} (exact match required)")
        # A counter present on only one side (an older baseline predating
        # the counter, or a retired one) is treated as an implicit zero:
        # flagged only when the side that has it is nonzero.
        bcounters = brow.get("counters")
        if isinstance(bcounters, dict):
            fcounters = frow.get("counters") or {}
            for name in sorted(set(bcounters) | set(fcounters)):
                bval = bcounters.get(name, 0)
                fval = fcounters.get(name, 0)
                if bval != fval:
                    mismatches.append(
                        f"{label} counters.{name}: {fval} vs baseline "
                        f"{bval} (exact match required)")

    timings = (f"timings at ±{tol * 100:.0f}% tolerance" if same_threads
               else "timings skipped")
    print(f"compared {len(shared)} rows: exact fields and counters, "
          f"{timings}")
    for r in regressions:
        annotate("warning", f"bench regression: {r}")
    for m in mismatches:
        annotate("error", f"bench mismatch: {m}")
    if not regressions and not mismatches:
        print("no regressions beyond tolerance, no exact mismatches")

    # Learned-schedule win gate: a *hard* requirement on the committed
    # baseline (quick/filtered fresh runs may not carry the winning
    # circuit, so the baseline is what is judged), independent of --strict.
    if args.require_learned_win:
        wins = [
            "/".join(str(k) for k in key)
            for key, row in sorted(base.items())
            if isinstance(row.get("m"), (int, float))
            and isinstance(row.get("paper_best_m"), (int, float))
            and row["m"] < row["paper_best_m"]
        ]
        if wins:
            print(f"learned win: {', '.join(wins)} beat paper_best_m")
        else:
            annotate("error", "no baseline row beats its paper_best_m "
                     "(learned-schedule acceptance gate)")
            return 1

    if mismatches or (args.strict and not same_threads):
        return 1
    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
