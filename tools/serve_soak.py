#!/usr/bin/env python3
"""Randomized soak driver for the vcomp_serve daemon.

Spawns the daemon in pipe (stdin/stdout) mode and feeds it a randomized
stream of stitching jobs for a fixed wall-clock window, then shuts it
down cleanly and audits the event stream:

  * every submitted job must come back with exactly one terminal event
    (`result` — an `error` event fails the soak);
  * jobs submitted with identical specs must return byte-identical
    result rows, regardless of arrival time, queueing, or which other
    jobs they shared the pool with (the standing determinism contract);
  * two full-size netgen jobs ride along — `gen:s38417 --full-scale`
    and `gen:s38584 --full-scale` — to exercise the full-size path
    under concurrency (submitted first so they have the whole window
    to finish).

The arrival schedule, job mix, and per-job configs all derive from
--seed, so a soak failure reproduces with the same seed.  CI seeds this
with $GITHUB_RUN_ID (see .github/workflows/soak.yml).

Usage:
  serve_soak.py --bin build/tools/vcomp_serve --duration 900 --seed 1234 \
                [--max-jobs 3] [--cache 8] [--metrics f] [--trace f]

Exit code 0 iff the soak is clean.
"""

import argparse
import json
import random
import subprocess
import sys
import threading
import time

# Small netgen profiles that stitch in well under a minute each on one
# core: the randomized churn mix.  The full-scale s38417/s38584 jobs are
# added separately, once each, outside this mix.
CHURN_PROFILES = ("s444", "s526", "s641", "s953", "s1196", "s1423")
CHAINS = (1, 2, 4)
SELECTIONS = ("most-faults", "hardness", "random", "adi")
ENGINES = ("podem", "race")


def random_spec(rng):
    """One randomized churn-job config (dict, JSON-ready)."""
    spec = {
        "circuit": "gen:" + rng.choice(CHURN_PROFILES),
        "config": {
            "chains": rng.choice(CHAINS),
            "seed": rng.randrange(1, 100),
            "selection": rng.choice(SELECTIONS),
            "atpg": rng.choice(ENGINES),
        },
    }
    if rng.random() < 0.25:
        spec["config"]["capture"] = "vxor"
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin", required=True, help="vcomp_serve binary")
    ap.add_argument("--duration", type=float, default=900.0,
                    help="submission window in seconds (default 900)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--max-jobs", type=int, default=3)
    ap.add_argument("--cache", type=int, default=8)
    ap.add_argument("--max-gap", type=float, default=8.0,
                    help="max seconds between arrivals (uniform draw)")
    ap.add_argument("--metrics", default="")
    ap.add_argument("--trace", default="")
    ap.add_argument("--no-big", action="store_true",
                    help="skip the full-scale s38417/s38584 jobs "
                         "(quick local runs)")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cmd = [args.bin, "--max-jobs", str(args.max_jobs),
           "--cache", str(args.cache)]
    if args.metrics:
        cmd += ["--metrics", args.metrics]
    if args.trace:
        cmd += ["--trace", args.trace]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True,
                            bufsize=1)

    events = []
    events_lock = threading.Lock()

    def reader():
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                ev = {"event": "__unparseable__", "raw": line}
            with events_lock:
                events.append(ev)

    rt = threading.Thread(target=reader, daemon=True)
    rt.start()

    def submit(job_id, spec):
        req = {"op": "submit", "id": job_id}
        req.update(spec)
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()

    submitted = {}  # id -> spec key (canonical JSON) for determinism audit

    # The big ones go first: the full-scale profiles get the whole window.
    if not args.no_big:
        for name, chains in (("s38417", 4), ("s38584", 2)):
            big_spec = {"circuit": "gen:" + name,
                        "config": {"chains": chains, "seed": 3,
                                   "full_scale": True}}
            submit("big-" + name, big_spec)
            submitted["big-" + name] = json.dumps(big_spec, sort_keys=True)

    deadline = time.monotonic() + args.duration
    n = 0
    recent = []  # pool of specs eligible for duplicate resubmission
    while time.monotonic() < deadline:
        if recent and rng.random() < 0.3:
            # Duplicate an earlier spec: its row must match byte for byte.
            spec = rng.choice(recent)
        else:
            spec = random_spec(rng)
            recent.append(spec)
            if len(recent) > 12:
                recent.pop(0)
        n += 1
        job_id = f"soak-{n:04d}"
        submit(job_id, spec)
        submitted[job_id] = json.dumps(spec, sort_keys=True)
        time.sleep(rng.uniform(0.0, args.max_gap))

    # Occasional status probe plus clean shutdown; the daemon drains all
    # in-flight jobs before "bye", so wait() only returns once every
    # terminal event is on the wire.
    proc.stdin.write('{"op": "status"}\n')
    proc.stdin.write('{"op": "shutdown"}\n')
    proc.stdin.flush()
    rc = proc.wait()
    rt.join(timeout=30)

    failures = []
    if rc != 0:
        failures.append(f"daemon exited with code {rc}")

    rows = {}   # id -> canonical row JSON string
    for ev in events:
        kind = ev.get("event")
        if kind == "error":
            failures.append(f"job {ev.get('id')!r} errored: "
                            f"{ev.get('message')}")
        elif kind == "result":
            rows[ev["id"]] = json.dumps(ev["row"], sort_keys=True)
        elif kind == "__unparseable__":
            failures.append(f"unparseable daemon line: {ev['raw'][:200]}")

    for job_id in submitted:
        if job_id not in rows:
            failures.append(f"job {job_id} never produced a result")

    # Determinism audit: identical specs => identical rows.
    by_spec = {}
    for job_id, spec_key in submitted.items():
        if job_id in rows:
            by_spec.setdefault(spec_key, set()).add(rows[job_id])
    for spec_key, distinct in by_spec.items():
        if len(distinct) > 1:
            failures.append(f"nondeterministic rows for spec {spec_key}")

    dup_jobs = len(submitted) - len(by_spec)
    print(f"soak: {len(submitted)} jobs ({dup_jobs} duplicate-spec), "
          f"{len(rows)} results, seed {args.seed}")
    for f in failures:
        print(f"FAIL: {f}")
    print("soak " + ("FAILED" if failures else "clean"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
