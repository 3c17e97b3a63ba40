"""Tests of the benchmark itself (kept out of the repository's pytest run).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import HERE, Program, run_pass  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed, kernel  # noqa: E402
from run import Run, end_to_end, growth_exponent, traced  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, Arrangement, parse_invariants  # noqa: E402

GOLDEN = HERE.parent / "tests" / "golden" / "census_r2_maxdeg3.txt"


def _outputs(ops, results):
    return {op.key: [(r.code, r.out, r.err) for r in res] for op, res in zip(ops, results)}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program = Program()
        cls.passes = {}
        for name, workload in WORKLOADS.items():
            run = Run(cls.program, workload(seed=1))
            _, ops, results = run.one_pass()
            cls.passes[name] = (run, ops, results)

    def test_one_pass_of_each_workload_has_no_failed_op(self):
        for name, (run, ops, _) in self.passes.items():
            with self.subTest(workload=name):
                self.assertEqual(run.failures, [])
                self.assertEqual(run.attempted, len(ops))

    def test_corrupted_reference_is_caught_as_a_failed_op(self):
        with tempfile.TemporaryDirectory() as tmp:
            corrupted = Path(tmp) / "reference"
            shutil.copytree(REFERENCE_DIR, corrupted)
            path = corrupted / "arrangement.json"
            reference = json.loads(path.read_text(encoding="utf-8"))
            reference["8"]["k2"] += 1
            path.write_text(json.dumps(reference), encoding="utf-8")
            run = Run(self.program, Arrangement(seed=1, reference_dir=corrupted))
            run.one_pass()
        self.assertEqual(len(run.failures), 1)
        self.assertIn("arrangement k=8", run.failures[0])

    def test_traced_and_untraced_outputs_are_identical(self):
        for name, (_, ops, results) in self.passes.items():
            with self.subTest(workload=name):
                tracer = Tracer()
                with tracer.installed():
                    _, traced_results = run_pass(self.program, ops, tracer)
                self.assertGreater(len(tracer.start), len(ops))
                self.assertEqual(_outputs(ops, traced_results), _outputs(ops, results))

    def test_tracer_restores_the_program(self):
        from planecover import classify, group, normalize

        originals = (classify.normalize, normalize.normalize, group.pair)
        with Tracer().installed():
            self.assertIs(classify.normalize, normalize.normalize)
            self.assertIsNot(group.pair, originals[2])
        self.assertEqual((classify.normalize, normalize.normalize, group.pair), originals)

    def test_seed_does_not_change_checked_outputs(self):
        for name in ("fixtures", "census", "arrangement"):
            with self.subTest(workload=name):
                _, ops, results = self.passes[name]
                other = Run(self.program, WORKLOADS[name](seed=2))
                _, other_ops, other_results = other.one_pass()
                self.assertNotEqual([op.key for op in ops], [op.key for op in other_ops])
                if name == "arrangement":
                    self.assertNotEqual({op.stdin for op in ops}, {op.stdin for op in other_ops})
                    mine = {op.key: parse_invariants(res[0].out) for op, res in zip(ops, results)}
                    theirs = {
                        op.key: parse_invariants(res[0].out) for op, res in zip(other_ops, other_results)
                    }
                else:
                    mine, theirs = _outputs(ops, results), _outputs(other_ops, other_results)
                self.assertEqual(mine, theirs)

    @unittest.skipUnless(GOLDEN.is_file(), "golden census not in this checkout")
    def test_census_reference_matches_the_golden_file(self):
        recorded = (REFERENCE_DIR / "census" / "r2_d3.txt").read_bytes()
        self.assertEqual(recorded, GOLDEN.read_bytes())

    def test_runs_report_exactly_the_declared_metrics(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        for key, mode in (("end_to_end", end_to_end), ("per_layer", traced)):
            with self.subTest(metrics=key):
                run = Run(self.program, WORKLOADS["fixtures"](seed=1))
                if mode is end_to_end:
                    metrics, _ = end_to_end(run, 0.0, setup_s=0.1)
                else:
                    metrics, _ = traced(run, 0.0, "fixtures")
                want = {m["name"]: m["unit"] for m in declared[key]}
                self.assertEqual({name: unit for name, (_, unit) in metrics.items()}, want)

    def test_host_speed_factor_is_reference_over_mean_kernel_time(self):
        host = HostSpeed()
        factor = host.sample(0.0)
        self.assertEqual((host.count, host.factors), (1, [factor]))
        self.assertAlmostEqual(factor, REFERENCE_S / host.spent)
        host.sample(0.05)
        self.assertAlmostEqual(host.factors[-1] * (host.spent / REFERENCE_S), host.count, delta=1.5)
        self.assertEqual(kernel(), kernel())

    def test_growth_exponent_is_pooled_within_series(self):
        samples = [(r, d, r * 10.0 * d**3) for r in (2, 3, 4) for d in (3, 5, 7)]
        self.assertAlmostEqual(growth_exponent(samples), 3.0)


if __name__ == "__main__":
    unittest.main()
