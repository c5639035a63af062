#!/usr/bin/env python3
"""Repository benchmark: builds it, runs one workload, prints metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (see BENCHMARK.json and perfbench/design.json for why each exists):

    s5378-var   constrained-ATPG-bound stitched run
    serve-mix   closed-loop serve::Server traffic over seven circuits

Each workload does a fixed amount of work, so that every run measures the
same thing; BENCHMARK.json's run_seconds states about how long that takes,
and --seconds, which the caller passes with that value, changes nothing.

The first run builds the library and vcomp_perfbench in Release mode under
.bench_build/perfbench.  With --trace 0 the last line of standard output is a
JSON object holding every end-to-end metric of BENCHMARK.json; with --trace 1
it holds every per-layer metric, taken from a traced run (spans recorded
by vcomp_perfbench around the library's public calls, plus the replay and
ATPG-probe checks) and compared with an untraced run for the tracing
overhead.  Every line before it is a human-readable report.  The exit code
is non-zero, and no result is printed, when the build or the run fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "vcomp_perfbench")
WORKLOADS = ("s5378-var", "serve-mix")
DEFAULT_SEED = 1
# A run must end within 180 s of its build; a traced run starts
# vcomp_perfbench twice, and both share this budget.
RUN_BUDGET_S = 170
# Layers a workload does not drive report 0 for their per-layer metrics.
NOT_ON_PATH = {
    "s5378-var": ("netlist.", "serve."),
    "serve-mix": (),
}
# Per-layer times must cover this share of the set-up, of the stitch time
# and of both together.
MIN_LAYER_COVERAGE = 0.95
COVERAGE_METRICS = ("obs.setup_coverage", "obs.stitch_coverage",
                    "obs.layer_coverage")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds vcomp_perfbench; logs to build.log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a configure step has generated a build system.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "vcomp_perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                raise BenchError("build failed, see " + log_path)


def run_program(workload, seed, trace, deadline):
    """Runs vcomp_perfbench once and returns its raw JSON result."""
    work_dir = os.path.join(BUILD_DIR, "inputs")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-%d.json" % (workload, seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("VCOMP_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(1, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s of the build"
                         % (workload, RUN_BUDGET_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("vcomp_perfbench exited with code %d"
                         % proc.returncode)
    return json.loads(lines[-1])


def tail_percentile(samples, want=90, beyond=10):
    """The highest percentile up to `want` with `beyond` samples above it.

    Nearest-rank percentiles: percentile p is the sample of rank ceil(p*n/100),
    and n - rank samples lie beyond it.  Returns (p, value); when no percentile
    has `beyond` samples above it, returns (100, max) so the tail is still
    reported, marked as the maximum.
    """
    n = len(samples)
    if n == 0:
        raise BenchError("no latency samples")
    ordered = sorted(samples)
    p = min(want, (100 * (n - beyond)) // n) if n > beyond else 0
    if p <= 0:
        return 100, ordered[-1]
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


def percentile(samples, p):
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def end_to_end(raw):
    """End-to-end metric values and a note per metric, from a raw result."""
    s, v = raw["samples"], raw["values"]
    lat = s["job_latency_s"]
    p, tail = tail_percentile(lat)
    tail_note = ("p%d of %d jobs" % (p, len(lat)) if p < 100 else
                 "max of %d job(s): no percentile has 10 beyond it" % len(lat))
    return {
        "setup_s": (statistics.median(s["setup_s"]),
                    "median of %d set-ups (CPU)" % len(s["setup_s"])),
        "stitch_cpu_s": (statistics.median(s["stitch_cpu_s"]),
                         "median of %d (CPU)" % len(s["stitch_cpu_s"])),
        "job_p50_s": (percentile(lat, 50), "p50 of %d jobs" % len(lat)),
        "job_p90_s": (tail, tail_note),
        "jobs_per_s": (v["jobs"] / v["loop_wall_s"],
                       "%d jobs in %.3f s" % (v["jobs"], v["loop_wall_s"])),
        "m": (v["m"], "exact"),
        "t": (v["t"], "exact"),
        "peak_rss_mb": (v["peak_rss_mb"], "benchmark process"),
    }


def reference_failures(raw, workload):
    """s5378-var must equal the committed BENCH_stitch.json row.

    Its stitched run is the same at every benchmark seed, so the check
    applies to every run.
    """
    if workload != "s5378-var":
        return []
    try:
        with open(os.path.join(ROOT, "BENCH_stitch.json")) as f:
            rows = json.load(f)["configs"]
        row = next(r for r in rows
                   if r["circuit"] == "s5378" and r["config"] == "var")
    except (OSError, ValueError, KeyError, StopIteration):
        return ["BENCH_stitch.json has no s5378 var row"]
    v, got = raw["values"], raw["reference_counters"]
    out = []
    for key in ("m", "t"):
        if "%.6g" % v[key] != "%.6g" % row[key]:
            out.append("%s %.6g != BENCH_stitch %s" % (key, v[key], row[key]))
    for key in ("tv", "ex"):
        if int(v[key]) != row[key]:
            out.append("%s %d != BENCH_stitch %d" % (key, v[key], row[key]))
    for name, want in row.get("counters", {}).items():
        if got.get(name) != want:
            out.append("counter %s %s != BENCH_stitch %d"
                       % (name, got.get(name), want))
    return out


def per_layer(raw, untraced, workload, names):
    """Per-layer metric values from the traced and untraced raw results."""
    layers = dict(raw["layers"])

    def work(r):
        return (statistics.median(r["samples"]["setup_s"]) +
                statistics.median(r["samples"]["stitch_cpu_s"]))

    layers["obs.trace_overhead"] = work(raw) / work(untraced) - 1
    for name in names:
        if name not in layers and name.startswith(NOT_ON_PATH[workload]):
            layers[name] = 0.0
    missing = [n for n in names if n not in layers]
    if missing:
        raise BenchError("vcomp_perfbench did not report " + ", ".join(missing))
    return layers


def coverage_failures(layers):
    """One failure per coverage ratio of the traced run below the minimum."""
    return ["%s: layer times cover %.1f%% of the time they decompose"
            % (name, 100 * layers.get(name, 0))
            for name in COVERAGE_METRICS
            if layers.get(name, 0) < MIN_LAYER_COVERAGE]


def format_table(rows):
    """Report lines for (name, value, unit, better, note) rows."""
    lines = ["  %-40s %16s  %-6s %-6s  %s" % ("metric", "value", "unit",
                                             "better", "")]
    for name, value, unit, better, note in rows:
        if not name or not unit or better not in ("higher", "lower"):
            raise BenchError("metric %r lacks a name, unit or direction" % name)
        lines.append("  %-40s %16.6g  %-6s %-6s  %s"
                     % (name, value, unit, better, note))
    return lines


def outcome(raw, checks):
    """(attempted, failed, failures): the raw counts plus failed checks.

    A failed check (a reference mismatch, too little layer coverage) fails
    the attempt it inspected, so failed never exceeds attempted.
    """
    attempted = raw["attempted"]
    if attempted < 1:
        raise BenchError("vcomp_perfbench attempted nothing")
    failures = raw["failures"] + checks
    return attempted, min(attempted, raw["failed"] + len(checks)), failures


def result_line(correct, attempted, failed, values, specs):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35,
                    help="accepted for the benchmark contract; the work is "
                    "fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = load_spec()
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        raw = run_program(args.workload, args.seed, False, deadline)
        log("workload %s  seed %d  trace %d"
            % (args.workload, args.seed, args.trace))
        checks = []
        if args.trace:
            untraced = raw
            raw = run_program(args.workload, args.seed, True, deadline)
            specs = spec["per_layer"]
            values = per_layer(raw, untraced, args.workload,
                               [m["name"] for m in specs])
            notes = {}
            checks += coverage_failures(raw["layers"])
        else:
            specs = spec["end_to_end"]
            e2e = end_to_end(raw)
            values = {name: val for name, (val, _) in e2e.items()}
            notes = {name: note for name, (_, note) in e2e.items()}
        for line in format_table([(m["name"], values[m["name"]], m["unit"],
                                   m["better"], notes.get(m["name"], ""))
                                  for m in specs]):
            log(line)
        checks += reference_failures(raw, args.workload)
        attempted, failed, failures = outcome(raw, checks)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for why in failures:
        log("  FAILED: " + why)
    log("  error_rate %.6g (%d of %d attempts failed)"
        % (failed / attempted, failed, attempted))
    print(result_line(not failures, attempted, failed, values, specs),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
