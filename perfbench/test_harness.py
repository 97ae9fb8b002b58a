"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py

Covers the output checker, the percentile helper, self-time arithmetic,
op-list generation and the tracing rebinds.  Uses only unittest.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TC_DOC = [{"n": 5, "r": 2, "lower": 4, "upper_constructive": 6,
           "upper_dimension": 4, "tc": 4, "constructive_tight": False}]
SIM_ARGV = ["simulate", "4", "2", "--queries", "5", "--steps", "256", "--seed", "3",
            "--continuity-probes", "2"]
SIM_DOC = {"n": 4, "r": 2, "mode": "skeleton", "queries": 5, "steps": 256, "seed": 3,
           "domain_histogram": {"0": 2, "1": 2, "2": 1}, "endpoint_violations": 0,
           "membership_violations": 0, "domain_violations": 0, "continuity_probes": 2,
           "max_continuity_ratio": 1.5, "wall_time_s": 0.01, "ok": True, "failures": []}
SEARCH_DOC = {"n": 4, "r": 3, "degree_one_length": 4, "certified_minimum": 4, "tc": 5,
              "cup_length": 4, "conjecture": "consistent"}
PLAN_ARGV = ["plan", "3", "2", "--from", "0,1/4", "--to", "1/2,0"]
PLAN_DOC = {"n": 3, "r": 2, "mode": "skeleton", "domain": 0, "agreement": [],
            "samples": [{"t": "0", "coords": ["0", "1/4"]},
                        {"t": "1/2", "coords": [{"approx": 0.25}, "0"]},
                        {"t": "1", "coords": ["1/2", "0"]}]}


def corrupt(doc, **changes):
    out = json.loads(json.dumps(doc))
    target = out[0] if isinstance(out, list) else out
    target.update(changes)
    return json.dumps(out)


class CheckerTest(unittest.TestCase):
    def test_accepts_correct_documents(self):
        self.assertIsNone(workloads.check(["tc", "5", "2", "--json"], 0, json.dumps(TC_DOC)))
        self.assertIsNone(workloads.check(SIM_ARGV, 0, json.dumps(SIM_DOC)))
        self.assertIsNone(workloads.check(["search-zdcl", "4", "3", "--json"], 0,
                                          json.dumps(SEARCH_DOC)))
        self.assertIsNone(workloads.check(PLAN_ARGV, 0, json.dumps(PLAN_DOC)))

    def test_rejects_corrupted_tc(self):
        argv = ["tc", "5", "2", "--json"]
        self.assertIsNotNone(workloads.check(argv, 0, corrupt(TC_DOC, tc=6)))
        self.assertIsNotNone(workloads.check(argv, 0, corrupt(TC_DOC, lower=3)))
        self.assertIsNotNone(workloads.check(argv, 0, corrupt(TC_DOC, r=3)))

    def test_rejects_corrupted_simulate(self):
        self.assertIsNotNone(workloads.check(SIM_ARGV, 0, corrupt(SIM_DOC, ok=False)))
        self.assertIsNotNone(workloads.check(SIM_ARGV, 0, corrupt(SIM_DOC, membership_violations=1)))
        self.assertIsNotNone(workloads.check(
            SIM_ARGV, 0, corrupt(SIM_DOC, domain_histogram={"0": 2, "1": 2})))

    def test_rejects_corrupted_search(self):
        argv = ["search-zdcl", "4", "3", "--json"]
        self.assertIsNotNone(workloads.check(argv, 0, corrupt(SEARCH_DOC, cup_length=3)))
        self.assertIsNotNone(workloads.check(argv, 0, corrupt(SEARCH_DOC, tc=4, cup_length=3)))
        self.assertIsNotNone(workloads.check(argv + ["--brute"], 0, json.dumps(SEARCH_DOC)))

    def test_rejects_corrupted_plan(self):
        doc = json.loads(json.dumps(PLAN_DOC))
        doc["samples"][-1]["coords"] = ["1/2", "1/8"]
        self.assertIsNotNone(workloads.check(PLAN_ARGV, 0, json.dumps(doc)))

    def test_rejects_nonzero_exit_and_non_json(self):
        self.assertIsNotNone(workloads.check(["tc", "5", "2", "--json"], 1, json.dumps(TC_DOC)))
        self.assertIsNotNone(workloads.check(["tc", "5", "2", "--json"], 0, "tc = 4"))


class PercentileTest(unittest.TestCase):
    def test_known_values(self):
        data = list(range(10, 0, -1))  # 1..10, unsorted
        # Exclusive method: the q-th percentile sits at rank q/100 * (n + 1).
        self.assertAlmostEqual(run.percentile(data, 50), 5.5)
        self.assertAlmostEqual(run.percentile(data, 25), 2.75)
        self.assertAlmostEqual(run.percentile(data, 75), 8.25)
        self.assertAlmostEqual(run.percentile(data, 90), 9.9)
        self.assertAlmostEqual(run.percentile(data, 10), 1.1)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_quartiles_match_the_steadiness_report(self):
        import statistics

        data = [3.1, 0.4, 2.2, 9.0, 5.5, 1.7, 4.4]
        q = run.quartiles(data)
        for got, want in zip((q["q1"], q["median"], q["q3"]), statistics.quantiles(data, n=4)):
            self.assertAlmostEqual(got, want)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 3.0, 0, 0),
            ("b", 4.0, 8.0, 0, 0),
            ("b1", 5.0, 6.0, 2, 0),
            ("b2", 6.5, 7.0, 2, 0),
            ("next", 11.0, 12.0, -1, 1),
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 2.5, 1.0, 0.5, 1.0])

    def test_overlapping_and_overhanging_children(self):
        spans = [("p", 0.0, 4.0, -1, 0), ("c1", 1.0, 3.0, 0, 0),
                 ("c2", 2.0, 5.0, 0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_layer_metrics_from_spans(self):
        tracer = tracing.Tracer()
        tracer.spans.extend([
            ("cli.main", 0.0, 0.010, -1, 0),
            ("bounds.compute_bounds", 0.001, 0.009, 0, 0),
            ("algebra.lower_bound_certificate", 0.002, 0.008, 1, 0),
        ])
        metrics = tracing.layer_metrics(tracer)
        self.assertAlmostEqual(metrics["cli.main.self_ms"], 2.0)
        self.assertAlmostEqual(metrics["bounds.compute_bounds.self_ms"], 2.0)
        self.assertAlmostEqual(metrics["algebra.lower_bound_certificate.ms"], 6.0)
        self.assertEqual(metrics["algebra.tensor_mul.zero_frac"], 0.0)


class WorkloadTest(unittest.TestCase):
    def test_seeded_and_large_enough(self):
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, 7)
            self.assertEqual(ops, workloads.build_ops(name, 7))
            self.assertGreaterEqual(len(ops), 100, name)
        self.assertNotEqual(workloads.build_ops("planner", 7), workloads.build_ops("planner", 8))

    def test_scaled_latencies_follow_op_order(self):
        result = {"latencies_s": [0.2, 0.1, 0.3], "reference_s": [run.REF_NOMINAL_S] * 3}
        scaled = run.scaled_latencies(result, [1, 2, 0])
        self.assertEqual([round(x, 12) for x in scaled], [0.3, 0.2, 0.1])
        slow = {"latencies_s": [0.2, 0.4], "reference_s": [2 * run.REF_NOMINAL_S] * 2}
        scaled = run.scaled_latencies(slow, [0, 1])
        self.assertEqual([round(x, 12) for x in scaled], [0.1, 0.2])

    def test_benchmark_json_names_match_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in tracing.PER_LAYER])


@unittest.skipUnless(os.path.isdir(os.path.join(ROOT, "src", "torustc")), "needs src/torustc")
class InstallTest(unittest.TestCase):
    def test_rebinds_every_name_and_records_spans(self):
        import io
        from contextlib import redirect_stdout

        from torustc import algebra, bounds, cli, planner, verify

        originals = {
            (cli, "main"): cli.main,
            (cli, "compute_bounds"): cli.compute_bounds,
            (bounds, "lower_bound_certificate"): bounds.lower_bound_certificate,
            (verify, "plan_product"): verify.plan_product,
            (planner, "plan_product"): planner.plan_product,
            (algebra.TensorElement, "__mul__"): algebra.TensorElement.__mul__,
            (planner.PlannerPath, "evaluate"): planner.PlannerPath.evaluate,
        }
        tracer = tracing.Tracer()
        rebound = tracing.install(tracer)
        try:
            for (owner, attr), fn in originals.items():
                self.assertIsNot(getattr(owner, attr), fn, attr)
            with redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["tc", "4", "2", "--json"]), 0)
            names = [s[0] for s in tracer.spans]
            self.assertEqual(names[0], "cli.main")
            self.assertIn("bounds.compute_bounds", names)
            self.assertIn("algebra.tensor_mul", names)
            metrics = tracing.layer_metrics(tracer)
            self.assertEqual(metrics["cli.main.calls"], 1)
            self.assertGreater(metrics["algebra.tensor_mul.pairs"], 0)
        finally:
            for owner, attr, fn in rebound:
                setattr(owner, attr, fn)
        for (owner, attr), fn in originals.items():
            self.assertIs(getattr(owner, attr), fn, attr)


if __name__ == "__main__":
    unittest.main()
