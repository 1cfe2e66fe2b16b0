"""Cut-off sweeps and ripple-budgeted capacitance selection.

The DC voltage grows and the ripple shrinks as the time constant grows, so
picking the capacitance is a monotone scalar problem: find the smallest tau
(largest DC) whose ripple still fits the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rcfilter import (
    RcFilter,
    amplification_factor,
    dc_voltage,
    eval_filtered,
    filtered_series,
    period_extrema,
    require_finite_positive,
    ripple_peak,
)
from .rectifier import DEFAULT_TRUNCATION, RectifierKind, build_series, rectify

__all__ = [
    "SweepRow",
    "DesignResult",
    "RIPPLE_METRICS",
    "sampled_ripple",
    "analytic_ripple",
    "sweep_cutoff",
    "optimize_capacitance",
    "time_trace",
    "rectified_reference",
]

RIPPLE_METRICS = ("sampled_ptp", "analytic")

DEFAULT_SAMPLES = 4096

# log-tau bisection bracket (seconds); the upper end grows if ever needed
_TAU_LO = 1e-15
_TAU_HI = 1e-3
_TAU_HI_MAX = 1e3
_TAU_REL_TOL = 1e-9
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class SweepRow:
    """One cut-off grid point: filter parameters, DC voltage, both ripples."""

    cutoff: float
    tau: float
    capacitance: float
    v_dc: float
    ripple_analytic: float
    ripple_sampled: float


@dataclass(frozen=True)
class DesignResult:
    """Chosen capacitance under a ripple budget."""

    capacitance: float
    tau: float
    v_dc: float
    ripple: float
    budget: float
    feasible: bool


def _output_series(kind, filt, amplitude, fc, truncation):
    base = build_series(kind, truncation, scale=amplification_factor(filt, fc) * amplitude, fc=fc)
    return filtered_series(base, filt)


def sampled_ripple(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    truncation: int = DEFAULT_TRUNCATION,
    samples: int = DEFAULT_SAMPLES,
) -> float:
    """Peak-to-peak of the filter output over one carrier period, sampled."""
    vmax, vmin = period_extrema(_output_series(kind, filt, amplitude, fc, truncation), samples)
    return vmax - vmin


def analytic_ripple(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> float:
    """Aligned-phase peak approximation minus the DC level."""
    return ripple_peak(kind, filt, amplitude, fc, truncation) - dc_voltage(
        kind, filt, amplitude, fc
    )


def sweep_cutoff(
    kind: RectifierKind,
    resistance: float,
    amplitude: float,
    fc: float,
    cutoff_min: float,
    cutoff_max: float,
    n_points: int,
    spacing: str = "linear",
    truncation: int = DEFAULT_TRUNCATION,
    samples: int = DEFAULT_SAMPLES,
) -> list[SweepRow]:
    """Tabulate DC voltage and ripple on a cut-off frequency grid."""
    require_finite_positive("cutoff_min", cutoff_min)
    require_finite_positive("cutoff_max", cutoff_max)
    if not cutoff_min < cutoff_max:
        raise ValueError(f"need 0 < cutoff_min < cutoff_max, got {cutoff_min}, {cutoff_max}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if spacing == "linear":
        grid = np.linspace(cutoff_min, cutoff_max, n_points)
    elif spacing == "log":
        grid = np.geomspace(cutoff_min, cutoff_max, n_points)
    else:
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    rows = []
    for cutoff in grid:
        filt = RcFilter.from_cutoff(resistance, float(cutoff))
        rows.append(
            SweepRow(
                cutoff=float(cutoff),
                tau=filt.tau,
                capacitance=filt.capacitance,
                v_dc=dc_voltage(kind, filt, amplitude, fc),
                ripple_analytic=analytic_ripple(kind, filt, amplitude, fc, truncation),
                ripple_sampled=sampled_ripple(kind, filt, amplitude, fc, truncation, samples),
            )
        )
    return rows


def optimize_capacitance(
    kind: RectifierKind,
    resistance: float,
    amplitude: float,
    fc: float,
    ripple_budget: float,
    ripple_metric: str = "sampled_ptp",
    truncation: int = DEFAULT_TRUNCATION,
    samples: int = DEFAULT_SAMPLES,
) -> DesignResult:
    """Smallest time constant whose ripple fits the budget.

    Bisects on log tau, relying on ripple falling and DC voltage falling as
    tau grows; the returned ripple is re-evaluated at the chosen capacitance
    so the result is self-consistent with the metric.  A budget at or above
    the unfiltered ripple returns C = 0 (the unconstrained optimum); one the
    search range cannot reach raises ``ValueError``.
    """
    require_finite_positive("ripple_budget", ripple_budget)
    if ripple_metric not in RIPPLE_METRICS:
        raise ValueError(f"ripple_metric must be one of {RIPPLE_METRICS}, got {ripple_metric!r}")

    def metric(capacitance: float) -> float:
        filt = RcFilter(resistance, capacitance)
        if ripple_metric == "sampled_ptp":
            return sampled_ripple(kind, filt, amplitude, fc, truncation, samples)
        return analytic_ripple(kind, filt, amplitude, fc, truncation)

    def result(capacitance: float, ripple: float) -> DesignResult:
        filt = RcFilter(resistance, capacitance)
        return DesignResult(
            capacitance=capacitance,
            tau=filt.tau,
            v_dc=dc_voltage(kind, filt, amplitude, fc),
            ripple=ripple,
            budget=ripple_budget,
            feasible=ripple <= ripple_budget * (1.0 + 1e-6),
        )

    unfiltered = metric(0.0)
    if unfiltered <= ripple_budget:
        return result(0.0, unfiltered)

    lo = _TAU_LO
    while metric(lo / resistance) <= ripple_budget and lo > 1e-30:
        lo /= 10.0
    hi = _TAU_HI
    while metric(hi / resistance) > ripple_budget:
        hi *= 10.0
        if hi > _TAU_HI_MAX:
            raise ValueError("ripple budget not reachable within the tau search range")

    for _ in range(_MAX_BISECTIONS):
        if hi / lo - 1.0 <= _TAU_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if metric(mid / resistance) <= ripple_budget:
            hi = mid
        else:
            lo = mid
    capacitance = hi / resistance
    return result(capacitance, metric(capacitance))


def time_trace(
    kind: RectifierKind,
    resistance: float,
    amplitude: float,
    fc: float,
    cutoff: float,
    t_grid,
    truncation: int = DEFAULT_TRUNCATION,
) -> list[tuple[float, float]]:
    """Tabulate the filter output voltage over a time grid (for CSV export)."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array of times")
    filt = RcFilter.from_cutoff(resistance, cutoff)
    fs = _output_series(kind, filt, amplitude, fc, truncation)
    values = eval_filtered(fs, ts)
    return list(zip(ts.tolist(), values.tolist()))


def rectified_reference(
    kind: RectifierKind,
    resistance: float,
    amplitude: float,
    fc: float,
    t_grid,
) -> np.ndarray:
    """Pointwise ``R * g(sqrt(R) A cos(2 pi fc t))``: the tau = 0 output."""
    ts = np.asarray(t_grid, dtype=float)
    vin = math.sqrt(resistance) * amplitude * np.cos(2.0 * math.pi * fc * ts)
    return resistance * rectify(kind, vin)
