"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the oracle's rejection of corrupted
operators, the tracer's reach into every import site (with exact call
counts), and the seeded operation lists.
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cli(argv: list[str]) -> int:
    import connlab.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return connlab.cli.main(argv)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # f [0, 10] calls a matmul [1, 4] and g [5, 9]; g calls an apply [6, 7]
        t = Tracer()
        names = ["pkg.f", "exact.IntMatrix.__matmul__", "pkg.g", "exact.IntMatrix.apply"]
        for name in names:
            t.wrap(name, lambda: None)
        t.span_name = [0, 1, 2, 3]
        t.start = [0.0, 1.0, 5.0, 6.0]
        t.end = [10.0, 4.0, 9.0, 7.0]
        t.parent = [-1, 0, 0, 2]
        t.op = [0, 0, 0, 0]
        stats = t.per_name()
        self.assertEqual(stats["pkg.f"]["self_s"], 3.0)
        self.assertEqual(stats["pkg.f"]["fself_s"], 6.0)  # the matmul folds back in
        self.assertEqual(stats["pkg.g"]["self_s"], 3.0)
        self.assertEqual(stats["pkg.g"]["fself_s"], 4.0)
        self.assertEqual(stats["exact.IntMatrix.__matmul__"]["self_s"], 3.0)
        self.assertEqual(stats["exact.IntMatrix.apply"]["calls"], 1)
        strict = sum(s["self_s"] for s in stats.values())
        self.assertEqual(strict, 10.0)  # strict self times partition the root span

    def test_tail_percentile(self):
        value, pct = run.tail([float(i) for i in range(1, 51)])
        self.assertEqual((value, pct), (40.0, 80.0))
        self.assertEqual(run.tail([1.0, 2.0]), (2.0, 100.0))


class Oracle(unittest.TestCase):
    def setUp(self):
        import connlab

        self.g = connlab.from_spec("grid:3,3")
        b = connlab.bundle_for(self.g)
        self.L = [row[:] for row in b.connection.rows]
        self.green = [row[:] for row in b.green.rows]
        self.habs = [row[:] for row in b.hodge_signless.rows]
        self.summary = {"residual": 0, "det": b.connection_det, "energy": b.green.entry_sum()}

    def check(self):
        return oracle.check_certify(self.g.n, self.g.edges, self.L, self.green, self.habs, self.summary)

    def test_accepts_library_output(self):
        self.assertEqual(self.check(), [])

    def test_rejects_corrupted_green(self):
        self.green[0][1] += 1
        self.assertIn("L @ g != I", self.check())

    def test_rejects_corrupted_hodge(self):
        self.habs[2][3] -= 1
        self.assertIn("|H| differs from |D|^2 built from |d0|", self.check())

    def test_rejects_wrong_energy(self):
        self.summary["energy"] += 1
        self.assertTrue(self.check())


class Wrappers(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    def test_every_import_site_is_wrapped(self):
        import connlab.cli
        import connlab.dynamics
        import connlab.operators
        import connlab.products
        import connlab.spectra

        self.assertEqual(self.tracer.unpatched_sites(), [])
        for mod, name in (
            (connlab.operators, "charpoly"), (connlab.spectra, "matpow"),
            (connlab.cli, "inverse_exact"), (connlab.products, "det"),
            (connlab.dynamics, "inverse_unimodular"), (connlab.spectra, "bundle_for"),
        ):
            self.assertTrue(hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name}")

    def test_verify_figure8_runs_charpoly_five_times(self):
        self.assertEqual(_cli(["verify", "figure8"]), 0)
        self.assertEqual(self.tracer.layer_metrics(1, 0)["exact.charpoly.calls"][0], 5)

    def test_bounds_cycle6_bundles_and_connection_builds(self):
        self.assertEqual(_cli(["bounds", "cycle:6"]), 0)
        stats = self.tracer.per_name()
        self.assertEqual(stats["operators.OperatorBundle"]["calls"], 6)
        self.assertEqual(stats["operators.connection_matrix"]["calls"], 4)

    def test_uninstall_restores_originals(self):
        import connlab.exact
        import connlab.operators

        self.tracer.uninstall()
        self.assertIs(connlab.operators.charpoly, connlab.exact.charpoly)
        self.assertFalse(hasattr(connlab.exact.charpoly, "__wrapped__"))
        self.assertFalse(hasattr(connlab.exact.IntMatrix.__matmul__, "__wrapped__"))


class OperationLists(unittest.TestCase):
    def test_same_seed_same_list_and_no_repeats(self):
        for workload in workloads.WORKLOADS:
            warmup, timed = workloads.build(workload, 3, 20)
            again = workloads.build(workload, 3, 20)
            self.assertEqual((warmup, timed), again, workload)
            keys = [op.key for op in warmup + timed]
            self.assertEqual(len(keys), len(set(keys)), workload)
            other = workloads.build(workload, 4, 20)[1]
            self.assertNotEqual([op.label for op in timed], [op.label for op in other], workload)

    def test_list_length_follows_seconds_not_seed(self):
        for workload in workloads.WORKLOADS:
            short = workloads.build(workload, 5, 10)[1]
            long = workloads.build(workload, 5, 40)[1]
            self.assertGreater(sum(op.nominal_s for op in long), sum(op.nominal_s for op in short))
            self.assertEqual(len(workloads.build(workload, 6, 20)[1]), len(workloads.build(workload, 7, 20)[1]))


if __name__ == "__main__":
    unittest.main()
