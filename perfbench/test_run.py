"""Tests of the benchmark's own rules: percentiles, failure counting, printing.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The failure-counting test builds vcomp_perfbench (as run.py does) and submits a
request the server must reject.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_raw(**values):
    v = {"jobs": 120, "loop_wall_s": 24.0, "m": 0.9, "t": 0.8,
         "peak_rss_mb": 20.0}
    v.update(values)
    return {"attempted": 120, "failed": 0, "failures": [],
            "samples": {"setup_s": [0.9, 1.0, 1.1],
                        "stitch_cpu_s": [48.0],
                        "job_latency_s": [0.01 * i for i in range(1, 121)]},
            "values": v, "layers": {}, "reference_counters": {}}


class PercentileRule(unittest.TestCase):
    def test_p90_when_ten_samples_lie_beyond_it(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101))), (90, 90))

    def test_highest_percentile_with_ten_beyond_otherwise(self):
        # 50 samples: p80 is rank 40 with 10 beyond; p81 would leave 9.
        self.assertEqual(run.tail_percentile(list(range(1, 51))), (80, 40))

    def test_ten_beyond_for_every_sample_count(self):
        for n in range(11, 400):
            p, rank = run.tail_percentile(list(range(1, n + 1)))
            self.assertLessEqual(p, 90)
            self.assertGreaterEqual(n - rank, 10, n)
            if p < 90:
                self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)

    def test_maximum_when_no_percentile_has_ten_beyond(self):
        self.assertEqual(run.tail_percentile([3.0]), (100, 3.0))
        self.assertEqual(run.tail_percentile([float(i) for i in range(10)]),
                         (100, 9.0))


class FailureCounting(unittest.TestCase):
    def test_rejected_submit_counts_as_failure(self):
        run.build()
        work = os.path.join(run.BUILD_DIR, "inputs")
        os.makedirs(work, exist_ok=True)
        proc = subprocess.run(
            [run.BINARY, "--workload", "reject-check", "--seed", "1",
             "--trace", "0", "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual((raw["attempted"], raw["failed"]), (2, 1))
        self.assertIn("chains must be a positive integer", raw["failures"][0])
        attempted, failed, failures = run.outcome(raw, [])
        self.assertEqual((attempted, failed, len(failures)), (2, 1, 1))

    def test_failed_check_fails_its_attempt(self):
        raw = fake_raw()
        raw["attempted"] = 1
        self.assertEqual(run.outcome(raw, ["m differs"])[:2], (1, 1))
        raw["failed"] = 1
        self.assertEqual(run.outcome(raw, ["m differs"])[:2], (1, 1))

    def test_each_coverage_below_95_percent_is_a_failure(self):
        full = {name: 0.99 for name in run.COVERAGE_METRICS}
        self.assertEqual(run.coverage_failures(full), [])
        # A set-up the decomposition misses fails even when the stitch time,
        # 50 times larger, keeps the combined coverage above 95%.
        low_setup = dict(full, **{"obs.setup_coverage": 0.5})
        failures = run.coverage_failures(low_setup)
        self.assertEqual(len(failures), 1)
        self.assertIn("obs.setup_coverage", failures[0])
        self.assertEqual(len(run.coverage_failures({})), 3)

    def test_reference_mismatch_is_a_failure(self):
        raw = fake_raw(m=0.5, t=0.5, tv=1, ex=1)
        self.assertTrue(run.reference_failures(raw, "s5378-var"))
        self.assertEqual(run.reference_failures(raw, "serve-mix"), [])


class Printing(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_every_metric_has_name_unit_and_direction(self):
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertTrue(m["name"])
                self.assertTrue(m["unit"])
                self.assertIn(m["better"], ("higher", "lower"))

    def test_end_to_end_report_and_result_line(self):
        e2e = run.end_to_end(fake_raw())
        specs = self.spec["end_to_end"]
        self.assertEqual(set(e2e), {m["name"] for m in specs})
        rows = [(m["name"], e2e[m["name"]][0], m["unit"], m["better"],
                 e2e[m["name"]][1]) for m in specs]
        lines = run.format_table(rows)
        for (name, _, unit, better, _), line in zip(rows, lines[1:]):
            self.assertEqual(line.split()[0], name)
            self.assertEqual(line.split()[2:4], [unit, better])
        values = {name: v for name, (v, _) in e2e.items()}
        out = json.loads(run.result_line(True, 120, 0, values, specs))
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        for m in specs:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            self.assertNotEqual(out["metrics"][m["name"]]["value"], 0)

    def test_table_refuses_a_metric_without_unit_or_direction(self):
        with self.assertRaises(run.BenchError):
            run.format_table([("x", 1.0, "", "lower", "")])
        with self.assertRaises(run.BenchError):
            run.format_table([("x", 1.0, "s", "", "")])

    def test_per_layer_needs_every_metric_on_the_path(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        raw = fake_raw()
        with self.assertRaises(run.BenchError):
            run.per_layer(raw, raw, "serve-mix", names)
        raw["layers"] = {n: 1.0 for n in names
                         if not n.startswith(("serve.", "netlist."))}
        layers = run.per_layer(raw, raw, "s5378-var", names)
        self.assertEqual(set(layers), set(names))
        self.assertEqual(layers["obs.trace_overhead"], 0)


if __name__ == "__main__":
    unittest.main()
