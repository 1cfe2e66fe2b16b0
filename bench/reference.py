"""The benchmark's own model of the rectenna outputs, and the output checker.

Nothing here calls into ``rectenna``: the coefficients come from the exact
``k mod 4`` rule, peak-to-peak ripple from a dense inverse-FFT grid whose
extrema are then polished by Newton steps on the trigonometric polynomial,
and trace values from a direct cosine sum.  The checker compares CLI output
text against these references and reports the largest relative deviation of
any output voltage.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

TRUNCATION = 256

# 9 significant digits round to within 5e-9 relative; a value computed at a
# capacitance that was itself printed to 9 digits moves by up to twice that
# again (ripple scales like 1/tau^2 at large tau).
TOL_PRINTED = 5e-8
# Sampled peak-to-peak against exact extrema.  The CLI's 4096-sample grid
# reads up to ~5e-5 low near the unfiltered end of a sweep; that bias is
# reported through max_rel_err, and only a deviation beyond this fails.
TOL_SAMPLED = 1e-4
# At a C > 0 design solution the same bias measured at most 2.6e-6 over 180
# solves; 1e-5 keeps a 4x margin and fails a 16x cut in samples (3.6e-4).
TOL_SAMPLED_DESIGN = 1e-5
# Acceptance criterion 7: a C > 0 design sits on the ripple budget.
TOL_BOUNDARY = 1e-6

_DENSE = 16384


def coefficients(kind: str, truncation: int = TRUNCATION) -> tuple[float, np.ndarray]:
    """``(a0, a_1..a_K)`` of the rectified unit cosine from the k mod 4 rule."""
    c = 4.0 if kind == "full" else 2.0
    k = np.arange(1, truncation + 1)
    cos_half_pi = np.array([1.0, 0.0, -1.0, 0.0])[k % 4]
    ak = np.zeros(truncation)
    even = k > 1
    ak[even] = c * cos_half_pi[even] / (math.pi * (1.0 - k[even].astype(float) ** 2))
    ak[0] = 0.0 if kind == "full" else 0.5
    return c / math.pi, ak


@dataclass(frozen=True)
class Operating:
    """Rectifier kind, load, source amplitude and carrier of one input."""

    kind: str
    resistance: float
    amplitude: float
    fc: float

    def delta(self, capacitance: float) -> float:
        w = 2.0 * math.pi * self.fc * self.resistance * capacitance
        return math.sqrt(self.resistance / (1.0 + w * w))

    def harmonics(self, capacitance: float) -> tuple[float, np.ndarray]:
        """DC level and complex harmonic amplitudes ``delta A a_k H(k fc)``."""
        a0, ak = coefficients(self.kind)
        tau = self.resistance * capacitance
        k = np.arange(1, TRUNCATION + 1)
        h = self.resistance / (1.0 + 2j * math.pi * k * self.fc * tau)
        scale = self.delta(capacitance) * self.amplitude
        return scale * self.resistance * a0 / 2.0, scale * ak * h

    def v_dc(self, capacitance: float) -> float:
        a0, _ = coefficients(self.kind)
        return self.delta(capacitance) * self.amplitude * self.resistance * a0 / 2.0

    def ripple_analytic(self, capacitance: float) -> float:
        """Aligned-phase peak estimate minus DC, as the CLI defines it."""
        _, ak = coefficients(self.kind)
        k = np.arange(1, TRUNCATION + 1)
        w = 2.0 * math.pi * k * self.fc * self.resistance * capacitance
        harmonic_sum = float(np.sum(ak / np.sqrt(1.0 + w * w)))
        return self.delta(capacitance) * self.amplitude * self.resistance * harmonic_sum

    def peak_to_peak(self, capacitance: float) -> float:
        """Exact max minus min of the output over one carrier period."""
        _, c = self.harmonics(capacitance)
        spectrum = np.zeros(_DENSE // 2 + 1, dtype=complex)
        spectrum[1 : TRUNCATION + 1] = _DENSE * c / 2.0
        grid = np.fft.irfft(spectrum, n=_DENSE)
        vmax = _polish(c, int(np.argmax(grid)), float(grid.max()), 1.0)
        vmin = _polish(c, int(np.argmin(grid)), float(grid.min()), -1.0)
        return vmax - vmin

    def trace(self, capacitance: float, ts: np.ndarray) -> np.ndarray:
        """Output voltage at arbitrary times by direct cosine sum."""
        dc, c = self.harmonics(capacitance)
        w = 2.0 * math.pi * self.fc
        amp, phase = np.abs(c), np.angle(c)
        out = np.full(ts.shape, dc)
        for k in np.flatnonzero(amp) + 1:
            out += amp[k - 1] * np.cos((w * k) * ts + phase[k - 1])
        return out


def _polish(c: np.ndarray, index: int, value: float, sign: float) -> float:
    """Newton steps on ``sum_k Re(c_k e^{j k theta})`` from a grid extremum."""
    k = np.arange(1, c.size + 1)
    amp, phase = np.abs(c), np.angle(c)
    step_max = 2.0 * math.pi / _DENSE
    theta = index * step_max
    for _ in range(8):
        arg = k * theta + phase
        d1 = -float(np.sum(k * amp * np.sin(arg)))
        d2 = -float(np.sum(k * k * amp * np.cos(arg)))
        if d2 * sign >= 0.0:
            break
        step = max(-step_max, min(step_max, -d1 / d2))
        theta += step
        if abs(step) < 1e-15:
            break
    polished = float(np.sum(amp * np.cos(k * theta + phase)))
    return max(value, polished) if sign > 0 else min(value, polished)


@dataclass
class Verdict:
    """Outcome of checking one output: failures and the worst voltage deviation."""

    problems: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0
    zero_cap: bool = False

    def value(self, name: str, got: float, want: float, tol: float, scale: float | None = None,
              voltage: bool = True) -> None:
        base = abs(want) if scale is None else scale
        rel = abs(got - want) / base if base > 0 else abs(got - want)
        if voltage:
            self.max_rel_err = max(self.max_rel_err, rel)
        if not rel <= tol:
            self.problems.append(f"{name}: got {got!r}, want {want!r} (rel {rel:.3e} > {tol:g})")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _rows(text: str, header: list[str]) -> list[list[float]]:
    reader = csv.reader(io.StringIO(text))
    got_header = next(reader, None)
    if got_header != header:
        raise ValueError(f"header {got_header!r}, want {header!r}")
    return [[float(x) if x not in ("true", "false") else float(x == "true") for x in row]
            for row in reader]


SWEEP_HEADER = ["f_cut_hz", "tau_s", "cap_f", "v_dc_v", "ripple_analytic_v", "ripple_sampled_v"]
DESIGN_HEADER = ["cap_f", "tau_s", "v_dc_v", "ripple_v", "budget_v", "feasible"]
TRACE_HEADER = ["t_s", "v_o_v"]


@dataclass(frozen=True)
class SweepReference:
    cutoffs: np.ndarray
    v_dc: np.ndarray
    ripple_analytic: np.ndarray
    ripple_sampled: np.ndarray


def sweep_reference(op: Operating, lo: float, hi: float, points: int) -> SweepReference:
    cutoffs = np.geomspace(lo, hi, points)
    caps = 1.0 / (2.0 * math.pi * cutoffs * op.resistance)
    return SweepReference(
        cutoffs=cutoffs,
        v_dc=np.array([op.v_dc(c) for c in caps]),
        ripple_analytic=np.array([op.ripple_analytic(c) for c in caps]),
        ripple_sampled=np.array([op.peak_to_peak(c) for c in caps]),
    )


def check_sweep(text: str, op: Operating, ref: SweepReference, v: Verdict) -> None:
    rows = _rows(text, SWEEP_HEADER)
    v.require(len(rows) == ref.cutoffs.size, f"{len(rows)} rows, want {ref.cutoffs.size}")
    for i, (row, cut) in enumerate(zip(rows, ref.cutoffs)):
        f_cut, tau, cap, v_dc, r_analytic, r_sampled = row
        tau_want = 1.0 / (2.0 * math.pi * cut)
        v.value(f"row {i} f_cut", f_cut, cut, TOL_PRINTED, voltage=False)
        v.value(f"row {i} tau", tau, tau_want, TOL_PRINTED, voltage=False)
        v.value(f"row {i} cap", cap, tau_want / op.resistance, TOL_PRINTED, voltage=False)
        v.value(f"row {i} v_dc", v_dc, ref.v_dc[i], TOL_PRINTED)
        v.value(f"row {i} ripple_analytic", r_analytic, ref.ripple_analytic[i], TOL_PRINTED)
        v.value(f"row {i} ripple_sampled", r_sampled, ref.ripple_sampled[i], TOL_SAMPLED)


def check_design(text: str, op: Operating, budget: float, metric: str, v: Verdict) -> float:
    """Check one design row; return the printed capacitance."""
    rows = _rows(text, DESIGN_HEADER)
    v.require(len(rows) == 1, f"{len(rows)} design rows, want 1")
    cap, tau, v_dc, ripple, budget_out, feasible = rows[0]
    v.zero_cap = cap == 0.0
    v.value("budget", budget_out, budget, TOL_PRINTED, voltage=False)
    v.value("tau", tau, op.resistance * cap, TOL_PRINTED, voltage=False)
    v.require(feasible == 1.0, "design reports infeasible")
    v.require(cap >= 0.0, f"negative capacitance {cap!r}")
    v.value("v_dc", v_dc, op.v_dc(cap), TOL_PRINTED)
    if metric == "sampled":
        tol = TOL_SAMPLED_DESIGN if cap > 0.0 else TOL_SAMPLED
        v.value("ripple", ripple, op.peak_to_peak(cap), tol)
    else:
        v.value("ripple", ripple, op.ripple_analytic(cap), TOL_PRINTED)
    if cap > 0.0:
        v.value("ripple vs budget", ripple, budget, TOL_BOUNDARY, voltage=False)
    else:
        v.require(ripple <= budget, f"C = 0 but ripple {ripple!r} exceeds budget {budget!r}")
    return cap


def check_trace(text: str, op: Operating, cap: float, ts: np.ndarray, v: Verdict) -> None:
    rows = np.array(_rows(text, TRACE_HEADER))
    v.require(rows.shape == (ts.size, 2), f"trace shape {rows.shape}, want ({ts.size}, 2)")
    if rows.shape != (ts.size, 2):
        return
    t_err = float(np.max(np.abs(rows[:, 0] - ts) / np.abs(ts)))
    v.require(t_err <= TOL_PRINTED, f"trace times off by {t_err:.3e}")
    want = op.trace(cap, ts)
    peak = float(np.max(np.abs(want)))
    worst = int(np.argmax(np.abs(rows[:, 1] - want)))
    v.value(f"trace point {worst}", rows[worst, 1], want[worst], TOL_PRINTED, scale=peak)


def check_validate(text: str, code: int, v: Verdict) -> None:
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    v.require(code == 0, f"validate exited {code}")
    v.require(bool(checks), "validate printed no checks")
    v.require(all(line.startswith("PASS ") for line in checks),
              "; ".join(line for line in checks if not line.startswith("PASS ")))
    v.require(bool(lines) and lines[-1] == "all checks passed", "missing 'all checks passed'")
