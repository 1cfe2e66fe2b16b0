"""Seeded inputs for the four workloads, and how each operation runs and is checked.

Every workload draws a pool of inputs from ``--seed``; the closed loop then
cycles through the pool in order.  The pools are anchored on the README's
operating point (A = 1 V, R = 2 ohm, fc = 915 MHz) and on 13.56 MHz: each
carrier is drawn from one of the two ISM bands around those frequencies,
13.553-13.567 MHz and 902-928 MHz (ITU Radio Regulations 5.150), and R and A
from a factor of two either side of 2 ohm and 1 V.  No traffic data exists
for this library, so those ranges and the low/high mix are assumptions.

The two bands straddle fc * 4096 = 1e12 (fc ~ 244 MHz).  Below it the CLI's
sampled ripple sharpens its maximum by golden-section search through scalar
``eval_filtered`` calls; above it that search is skipped.  Sweep, design and
validate pools put the four low carriers at fixed, interleaved slots
(``_SLOTS``), chosen for steadiness: the loop runs whole passes, so every
run sees the same low/high mix, the median lands among the high carriers
and the tail among the low ones.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

from reference import (
    TRUNCATION,
    Operating,
    SweepReference,
    Verdict,
    check_design,
    check_sweep,
    check_trace,
    check_validate,
    sweep_reference,
)

WORKLOADS = ("sweep", "design", "analytic_trace", "validate")

LOW_BAND = (13.553e6, 13.567e6)  # ISM band around 13.56 MHz
HIGH_BAND = (902e6, 928e6)  # ISM band around 915 MHz (ITU Region 2)
RESISTANCE = (1.0, 4.0)  # ohm, a factor of two around the README's 2 ohm
AMPLITUDE = (0.5, 2.0)  # V, a factor of two around the README's 1 V
_SLOTS = "LHLHLHLHHH"
REFINE_LIMIT = 1e12  # fc * 4096 below this takes the golden-section path
SWEEP_POINTS = 50
TRACE_POOL = 16
_SLOT_BANDS = [LOW_BAND if slot == "L" else HIGH_BAND for slot in _SLOTS]


@dataclass
class Input:
    """One pool entry: CLI arguments plus what the checker needs."""

    op: Operating
    argv: list[str]
    budget: float = 0.0
    window: tuple[float, float, int] | None = None
    sweep_ref: SweepReference | None = None
    trace_ts: np.ndarray | None = None

    @property
    def refines(self) -> bool:
        return self.op.fc * 4096 < REFINE_LIMIT


def _common(op: Operating) -> list[str]:
    return ["--kind", op.kind, "--rl", repr(op.resistance), "--amplitude", repr(op.amplitude),
            "--fc", repr(op.fc), "--truncation", str(TRUNCATION)]


def _log_uniform(rng: np.random.Generator, band: tuple[float, float]) -> float:
    return float(10 ** rng.uniform(math.log10(band[0]), math.log10(band[1])))


def _operating_points(rng: np.random.Generator, bands: list[tuple]) -> list[Operating]:
    """One operating point per carrier band, with as many full- as half-wave inputs in each band."""
    kinds = {}
    for band in (LOW_BAND, HIGH_BAND):
        n = bands.count(band)
        kinds[band] = [str(k) for k in rng.permutation(
            ["full", "half"] * (n // 2) + ["full"] * (n % 2))]
    return [
        Operating(
            kind=kinds[band].pop(),
            resistance=_log_uniform(rng, RESISTANCE),
            amplitude=_log_uniform(rng, AMPLITUDE),
            fc=_log_uniform(rng, band),
        )
        for band in bands
    ]


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    return rng.permutation(edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges))


def make_pool(workload: str, seed: int) -> list[Input]:
    """Draw the workload's inputs from the seed and compute their input-only references.

    This is set-up: untimed, and no rectenna call.
    """
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload)])
    if workload == "sweep":
        ops = _operating_points(rng, _SLOT_BANDS)
        pool = []
        for op in ops:
            # grids start at 0.1-1x the carrier and span 3.2-4 decades, so
            # every sweep crosses the 1e2-1e3 cut-off/carrier band where the
            # sampled peak-to-peak reads furthest low
            lo = op.fc * 10 ** rng.uniform(-1.0, 0.0)
            hi = lo * 10 ** rng.uniform(3.2, 4.0)
            argv = ["sweep", *_common(op), "--fcut", f"{lo!r}:{hi!r}:{SWEEP_POINTS}:log"]
            pool.append(Input(op, argv, sweep_ref=sweep_reference(op, lo, hi, SWEEP_POINTS)))
        return pool
    if workload == "design":
        ops = _operating_points(rng, _SLOT_BANDS)
        # nine budgets log-uniform over three decades below the unfiltered
        # ripple and one above it (the C = 0 exit), on the last high slot
        below = list(_stratified(rng, -3.0, -0.02, len(_SLOTS) - 1))
        exponents = below + [float(rng.uniform(0.02, 0.3))]
        pool = []
        for op, x in zip(ops, exponents):
            budget = float(op.peak_to_peak(0.0) * 10 ** x)
            argv = ["design", *_common(op), "--budget", repr(budget), "--metric", "sampled"]
            pool.append(Input(op, argv, budget=budget))
        return pool
    if workload == "analytic_trace":
        bands = [(LOW_BAND, HIGH_BAND)[i] for i in rng.permutation([0, 1] * (TRACE_POOL // 2))]
        ops = _operating_points(rng, bands)
        exponents = list(rng.permutation(np.concatenate([
            _stratified(rng, -3.0, -0.02, TRACE_POOL - 2), rng.uniform(0.02, 0.3, 2)])))
        points = _stratified(rng, 2000, 4000, TRACE_POOL).astype(int)
        pool = []
        for op, x, n in zip(ops, exponents, points):
            budget = float(op.ripple_analytic(0.0) * 10 ** x)
            period = 1.0 / op.fc
            start = (int(rng.integers(0, 4)) + rng.uniform(0.05, 0.95)) * period
            stop = start + rng.uniform(4.0, 8.0) * period
            argv = ["design", *_common(op), "--budget", repr(budget), "--metric", "analytic"]
            pool.append(Input(op, argv, budget=budget, window=(start, stop, int(n)),
                              trace_ts=np.linspace(start, stop, int(n))))
        return pool
    if workload == "validate":
        pool = []
        for fc in (_log_uniform(rng, band) for band in _SLOT_BANDS):
            pool.append(Input(Operating("full", 2.0, 1.0, fc), ["validate", "--fc", repr(fc)]))
        return pool
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class Outcome:
    """What one operation printed (all CLI calls of it) and how it exited."""

    code: int
    texts: tuple[str, ...]
    error: str | None = None

    @property
    def bytes_out(self) -> int:
        return sum(len(t.encode()) for t in self.texts)


def _call(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_op(cli, workload: str, item: Input) -> Outcome:
    """Issue one operation through ``cli.main`` (looked up at call time)."""
    try:
        code, text = _call(cli, item.argv)
        if workload != "analytic_trace" or code != 0:
            return Outcome(code, (text,))
        cap = text.splitlines()[1].split(",")[0]
        start, stop, n = item.window
        trace_argv = ["trace", *_common(item.op), "--cap", cap, "--t", f"{start!r}:{stop!r}:{n}"]
        code2, text2 = _call(cli, trace_argv)
        return Outcome(code2, (text, text2))
    except Exception as exc:  # one failed operation must not end the run
        return Outcome(-1, (), error=f"{type(exc).__name__}: {exc}")


def check(workload: str, item: Input, outcome: Outcome) -> Verdict:
    """Check one distinct outcome against the benchmark's references."""
    v = Verdict()
    if outcome.error is not None:
        v.problems.append(outcome.error)
        return v
    if workload == "validate":
        check_validate(outcome.texts[0], outcome.code, v)
        return v
    v.require(outcome.code == 0, f"exit code {outcome.code}")
    if outcome.code != 0:
        return v
    try:
        if workload == "sweep":
            check_sweep(outcome.texts[0], item.op, item.sweep_ref, v)
        elif workload == "design":
            check_design(outcome.texts[0], item.op, item.budget, "sampled", v)
        else:
            cap = check_design(outcome.texts[0], item.op, item.budget, "analytic", v)
            check_trace(outcome.texts[1], item.op, cap, item.trace_ts, v)
    except (ValueError, IndexError, StopIteration) as exc:
        v.problems.append(f"unparseable output: {exc}")
    return v
