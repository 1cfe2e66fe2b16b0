"""Self-tests of the benchmark itself (not of rectenna).

Run from the repository root:

    python3 bench/selftest.py

They take about two minutes: each workload runs briefly, twice traced.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import rectenna.cli as cli  # noqa: E402
import workloads  # noqa: E402
from reference import Verdict, check_design, check_sweep, check_trace  # noqa: E402
from tracer import Totals, Tracer  # noqa: E402

REGISTERED = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that must repeat exactly for one seed
EXACT_COUNTS = ("design.metric_evals_per_solve", "rcfilter.eval_points",
                "rcfilter.harmonic_terms", "rectifier.coefficient_calls",
                "oracle.integrand_points", "waveforms.calls", "rcfilter.eval_calls",
                "rcfilter.eval_scalar_calls", "oracle.quad_calls", "cli.bytes_out")


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    """A short run of every workload prints every registered metric with its unit."""

    traced: dict[str, dict] = {}

    @classmethod
    def setUpClass(cls):
        for workload in workloads.WORKLOADS:
            cls.traced[workload] = [last_json(bench(workload, 5, 0.1, 1)) for _ in range(2)]

    def test_registered_workloads(self):
        registered = [w["name"] for w in REGISTERED["workloads"]]
        self.assertEqual(sorted(registered), sorted(workloads.WORKLOADS))

    def test_end_to_end_metrics(self):
        want = {m["name"]: m["unit"] for m in REGISTERED["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 5, 0.5, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
                report = proc.stdout.rsplit("\n", 2)[0]
                for name, unit in [*want.items(), ("error_rate", "ratio")]:
                    self.assertRegex(report, rf"(?m)^{name} +\S+ {unit}")

    def test_per_layer_metrics(self):
        want = {m["name"]: m["unit"] for m in REGISTERED["per_layer"]}
        for workload, (result, _) in self.traced.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)

    def test_same_seed_same_counts(self):
        for workload, (first, second) in self.traced.items():
            for name in EXACT_COUNTS:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"])

    def test_layers_exercised(self):
        m = {w: r[0]["metrics"] for w, r in self.traced.items()}
        self.assertGreater(m["sweep"]["design.sweep_ms"]["value"], 0)
        self.assertGreater(m["sweep"]["rcfilter.eval_scalar_calls"]["value"], 0)
        self.assertGreater(m["design"]["design.metric_evals_per_solve"]["value"], 0)
        self.assertGreater(m["analytic_trace"]["design.trace_ms"]["value"], 0)
        self.assertGreater(m["analytic_trace"]["rcfilter.ripple_peak_ms"]["value"], 0)
        self.assertGreater(m["validate"]["oracle.integrand_points"]["value"], 0)
        self.assertGreater(m["validate"]["rectifier.eval_series_ms"]["value"], 0)
        for workload in workloads.WORKLOADS:
            self.assertEqual(m[workload]["waveforms.calls"]["value"], 0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = [item.argv for item in workloads.make_pool(workload, 7)]
                b = [item.argv for item in workloads.make_pool(workload, 7)]
                c = [item.argv for item in workloads.make_pool(workload, 8)]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_mix(self):
        for workload in workloads.WORKLOADS:
            pool = workloads.make_pool(workload, 3)
            if workload != "analytic_trace":
                self.assertEqual([item.refines for item in pool],
                                 [s == "L" for s in workloads._SLOTS])
            for low, band in ((True, workloads.LOW_BAND), (False, workloads.HIGH_BAND)):
                in_band = [item.op for item in pool if item.refines == low]
                self.assertTrue(all(band[0] <= op.fc <= band[1] for op in in_band), workload)
                if workload != "validate":  # validate has no kind argument
                    halves = sum(op.kind == "half" for op in in_band)
                    self.assertEqual(halves, len(in_band) // 2, workload)


class Checker(unittest.TestCase):
    """The checker passes real output and counts a perturbed value as a failure."""

    @staticmethod
    def perturb(text: str, row: int, col: int, factor: float) -> str:
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_sweep(self):
        item = workloads.make_pool("sweep", 2)[1]
        outcome = workloads.run_op(cli, "sweep", item)
        self.assertEqual(workloads.check("sweep", item, outcome).problems, [])
        for col, factor in ((3, 1 + 1e-6), (5, 1 - 1e-3), (4, 1 + 1e-7)):
            v = Verdict()
            check_sweep(self.perturb(outcome.texts[0], 7, col, factor), item.op, item.sweep_ref, v)
            self.assertEqual(len(v.problems), 1, (col, v.problems))

    def test_design_and_trace(self):
        item = workloads.make_pool("analytic_trace", 2)[0]
        outcome = workloads.run_op(cli, "analytic_trace", item)
        self.assertEqual(workloads.check("analytic_trace", item, outcome).problems, [])
        v = Verdict()
        check_design(self.perturb(outcome.texts[0], 1, 3, 1 + 1e-5), item.op, item.budget,
                     "analytic", v)
        self.assertTrue(v.problems)
        v = Verdict()
        cap = float(outcome.texts[0].splitlines()[1].split(",")[0])
        check_trace(self.perturb(outcome.texts[1], 100, 1, 1 + 1e-3), item.op, cap,
                    item.trace_ts, v)
        self.assertTrue(v.problems)

    def test_design_with_fewer_samples_fails(self):
        """A solver that samples 256 points instead of 4096 buys speed with accuracy."""
        pool = workloads.make_pool("design", 1)
        cut = functools.partial(cli.optimize_capacitance, samples=256)
        with mock.patch.object(cli, "optimize_capacitance", cut):
            outcomes = [workloads.run_op(cli, "design", item) for item in pool]
        failed = [i for i, (item, outcome) in enumerate(zip(pool, outcomes))
                  if workloads.check("design", item, outcome).problems]
        self.assertTrue(failed)

    def test_validate_failure_line(self):
        item = workloads.make_pool("validate", 2)[0]
        outcome = workloads.run_op(cli, "validate", item)
        self.assertEqual(workloads.check("validate", item, outcome).problems, [])
        broken = workloads.Outcome(0, (outcome.texts[0].replace("PASS", "FAIL", 1),))
        self.assertTrue(workloads.check("validate", item, broken).problems)


class Tracing(unittest.TestCase):
    def test_design_budget_01_makes_39_metric_evaluations(self):
        tracer, totals = Tracer(), Totals()
        tracer.install()
        try:
            code = workloads._call(cli, ["design", "--budget", "0.1"])[0]
        finally:
            tracer.uninstall()
        totals.add(tracer)
        self.assertEqual(code, 0)
        self.assertEqual(totals.metrics(1, 0)["design.metric_evals_per_solve"][0], 39)
        self.assertEqual(cli.main.__name__, "main")  # uninstall restored the original
        self.assertEqual(tracer.absent, [])


    def test_unsized_call_still_runs(self):
        """A sizer that no longer fits the arguments leaves the call timed, with 0 points."""
        def outdated(args, kwargs):
            raise AttributeError("FilteredSeries has no attribute 'base'")

        tracer, totals = Tracer(), Totals()
        with mock.patch.dict("tracer._SIZERS", {"rcfilter.eval_filtered": outdated}):
            tracer.install()
        try:
            code = workloads._call(cli, ["design", "--budget", "0.1"])[0]
        finally:
            tracer.uninstall()
        totals.add(tracer)
        self.assertEqual(code, 0)
        self.assertEqual(tracer.unsized, {"rcfilter.eval_filtered"})
        self.assertGreater(totals.calls["rcfilter.eval_filtered"], 0)
        self.assertEqual(totals.points["rcfilter.eval_filtered"], 0)


class Refusal(unittest.TestCase):
    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        (BENCH_DIR / "results").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH_DIR / "results") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = bench("sweep", 1, 1, 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
