"""Cut-off sweeps and ripple-budgeted capacitance selection.

The DC voltage grows and the ripple shrinks as the time constant grows, so
picking the capacitance is a monotone scalar problem: find the smallest tau
(largest DC) whose ripple still fits the budget.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .rcfilter import (
    RcFilter,
    _aligned_peaks,
    _amplification,
    _check_output_bound,
    _prepared_kernel,
    dc_voltage,
    eval_filtered,
    filtered_series,
    ripple_peak,
)
from .rectifier import (
    DEFAULT_TRUNCATION,
    RectifierKind,
    _phases,
    build_series,
    fourier_coefficient,
    rectify,
    require_finite_positive,
)

__all__ = [
    "SweepRow",
    "DesignResult",
    "RIPPLE_METRICS",
    "sampled_ripple",
    "analytic_ripple",
    "make_grid",
    "sweep_cutoff",
    "optimize_capacitance",
    "time_trace",
    "rectified_reference",
]

RIPPLE_METRICS = ("sampled_ptp", "analytic")

DEFAULT_SAMPLES = 4096

# cut-offs per inverse FFT and extremum search: a block shares the fixed
# numpy cost per call, and each row takes ~55 KB of its prepared kernel's
# buffers at 4096 samples and K = 256
_SWEEP_BLOCK = 8
# cut-offs per chunk of (rows, 1 + K/2) aligned-peak matrices in
# sweep_cutoff, a multiple of _SWEEP_BLOCK: a 50-point sweep is one chunk,
# and a chunk peaks at ~0.3 MB at K = 256 however long the sweep
_SWEEP_CHUNK = 64

# capacitance solve on log tau.  The ripple depends on fc * tau alone and
# starts to fall near a tenth of a carrier period, so the search starts one
# period up (never above a tenth of _TAU_HI) and steps down by decades until
# its ripple exceeds the budget; the upper end starts at _TAU_HI seconds and
# grows if ever needed, up to _TAU_HI_MAX.  It stays in seconds: steps on
# log(fc * tau) would round differently and move printed design digits
_TAU_START_PERIODS = 1.0
_TAU_HI = 1e-3
_TAU_HI_MAX = 1e3
_TAU_REL_TOL = 1e-9
_LOG_TAU_TOL = math.log1p(_TAU_REL_TOL)
# the solve's steps never outnumber bisection's by more than _SLACK_STEPS,
# plus one where rounding leaves the last bracket a few ulps too wide
_SLACK_STEPS = 3


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


def sampled_ripple(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    truncation: int = DEFAULT_TRUNCATION,
    samples: int = DEFAULT_SAMPLES,
) -> float:
    """Peak-to-peak of the filter output over one carrier period, sampled.

    Bitwise the :func:`period_extrema` spread of the output series, as one
    row of a sweep: no series object is built.  Refuses an output that may
    overflow (``ValueError``).
    """
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
    x = fc * filt.tau
    scale = _amplification(filt.resistance, x) * amplitude
    _check_output_bound(kind, scale, filt.resistance, truncation)
    (ripple,) = _sampled_ripples(kind, filt.resistance, [x], (scale,), fc, truncation, samples)
    return ripple


def _sampled_ripples(kind, resistance, xs, scales, fc, truncation, samples) -> list[float]:
    # the output at each x = fc tau, scaled by its entry of scales, as a
    # period grid of the live harmonics only (k = 1 and the even k): the
    # rectifier's odd harmonics k >= 3 are exact zeros.  Each block of rows
    # runs in this thread's prepared kernel for its shape: transfers,
    # amplitudes, grid and extrema all go into its buffers
    dc = 0.5 * fourier_coefficient(kind, 0) * resistance
    ripples = []
    for start in range(0, len(xs), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        block_xs = xs[block]
        kernel = _prepared_kernel(truncation, samples, len(block_xs))
        kernel.load_filter(kind, resistance, block_xs)
        vmaxs, vmins = kernel.extrema(scales[block], dc, fc)
        ripples += map(operator.sub, vmaxs, vmins)
    return ripples


def analytic_ripple(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> float:
    """Aligned-phase peak approximation minus the DC level.

    Refuses an output that overflows (``ValueError``), as :func:`ripple_peak`
    and :func:`dc_voltage` do.
    """
    return ripple_peak(kind, filt, amplitude, fc, truncation) - dc_voltage(
        kind, filt, amplitude, fc
    )


def make_grid(lo: float, hi: float, points: int, spacing: str = "linear") -> np.ndarray:
    """``points`` values from ``lo`` to ``hi``, equally spaced or (``"log"``) in ratio.

    Raises ``ValueError`` unless the bounds are finite with ``lo < hi``,
    ``points >= 2``, and ``lo > 0`` for log spacing.
    """
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite bounds lo < hi, got {lo}, {hi}")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if spacing == "linear":
        return np.linspace(lo, hi, points)
    if lo <= 0:
        raise ValueError(f"log spacing needs positive bounds, got {lo}")
    return np.geomspace(lo, hi, points)


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
    """Tabulate DC voltage and ripple on a cut-off frequency grid.

    Each row is bitwise what :meth:`RcFilter.from_cutoff`,
    :func:`dc_voltage`, :func:`analytic_ripple` and :func:`sampled_ripple`
    give at its cut-off.  Every per-cut-off quantity is a column formed in
    one vectorized pass, in its scalar twin's operation order, with the
    ``(rows, 1 + K/2)`` aligned-peak matrices of the live harmonics formed
    a chunk of cut-offs at a time; only the transfers, the period grid's
    inverse FFT and its extrema run per block of cut-offs, in the block's
    prepared kernel.
    Refuses what :meth:`RcFilter.from_cutoff` refuses, with its message,
    and a table with a value that is not finite (``ValueError``).
    """
    table = _sweep_table(
        kind, resistance, amplitude, fc, cutoff_min, cutoff_max, n_points, spacing, truncation,
        samples,
    )
    return list(map(SweepRow, *table.tolist()))


def _sweep_table(
    kind, resistance, amplitude, fc, cutoff_min, cutoff_max, n_points, spacing, truncation, samples
) -> np.ndarray:
    # the SweepRow fields as the rows of one checked (6, points) array, which
    # the CLI formats with no row objects.  Each column repeats its scalar
    # twin's operations in order (from_cutoff, tau, _amplification,
    # dc_voltage), so each entry is bitwise the per-point one
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
    require_finite_positive("cutoff_min", cutoff_min)
    require_finite_positive("cutoff_max", cutoff_max)
    cutoffs = make_grid(cutoff_min, cutoff_max, n_points, spacing)
    require_finite_positive("resistance", resistance)
    # 2 pi f_cut R may overflow (C = 0) or underflow, and the outputs may
    # overflow: the warnings are dropped, and the columns checked instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denominators = 2.0 * math.pi * cutoffs * resistance
        capacitances = 1.0 / denominators
        # from_cutoff's refusals, with its messages, for the first cut-off with
        # one: 2 pi f_cut R underflows to 0, or to a subnormal whose inverse is inf
        infinite = capacitances == math.inf
        if infinite.any():
            i = int(infinite.argmax())
            if denominators[i] == 0.0:
                raise ValueError(f"cutoff {cutoffs[i]} with resistance {resistance} underflows")
            require_finite_positive("capacitance", float(capacitances[i]), allow_zero=True)
        taus = resistance * capacitances
        xs = fc * taus
        w = 2.0 * math.pi * xs
        scales = np.sqrt(resistance / (1.0 + w * w)) * amplitude
        v_dcs = scales * resistance * fourier_coefficient(kind, 0) / 2.0
        peaks, ripples = np.empty_like(xs), np.empty_like(xs)
        for start in range(0, len(xs), _SWEEP_CHUNK):
            chunk = slice(start, start + _SWEEP_CHUNK)
            peaks[chunk] = _aligned_peaks(kind, scales[chunk], resistance, xs[chunk], truncation)
            ripples[chunk] = _sampled_ripples(
                kind, resistance, xs[chunk], scales[chunk], fc, truncation, samples
            )
        table = np.array((cutoffs, taus, capacitances, v_dcs, peaks - v_dcs, ripples))
    if not np.isfinite(table).all():
        raise ValueError("result is not finite; an input is out of range")
    return table


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

    Relies on ripple falling and DC voltage falling as tau grows.  The
    solve brackets the budget on log tau, then runs a safeguarded secant
    (Illinois regula falsi, Dowell & Jarratt 1971) on ``log ripple - log
    budget``.  Each step replaces one bracket end and is held within a
    window around the bracket midpoint that halves per step, so the solve
    never takes more than four steps beyond bisection's count.  It stops at a
    relative bracket width of 1e-9 and returns the feasible end with the
    ripple evaluated there, so the result is self-consistent with the
    metric.  A budget at or above the unfiltered ripple returns C = 0 (the
    unconstrained optimum); one the search range cannot reach, or that lies
    between two neighbouring subnormal taus, raises ``ValueError``.
    """
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
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

    # the unfiltered ripple is the largest the solve evaluates, and the
    # metric refuses it where the output may overflow: a larger tau only
    # shrinks the input scale, so no later evaluation overflows
    unfiltered = metric(0.0)
    if unfiltered <= ripple_budget:
        return result(0.0, unfiltered)

    # lo is always a tau whose ripple was evaluated above the budget, hi one
    # whose ripple fits it; such a lo exists, since the unfiltered ripple does
    # not fit.  A start that already fits is a tighter hi than _TAU_HI.
    hi = None
    lo = min(_TAU_START_PERIODS / fc, 0.1 * _TAU_HI)
    while (ripple_lo := metric(lo / resistance)) <= ripple_budget:
        hi, ripple_hi = lo, ripple_lo
        lo /= 10.0
        if lo == 0.0:
            raise ValueError("ripple budget not resolvable above the smallest tau")
    if hi is None:
        hi = _TAU_HI
        while (ripple_hi := metric(hi / resistance)) > ripple_budget:
            hi *= 10.0
            if hi > _TAU_HI_MAX:
                raise ValueError("ripple budget not reachable within the tau search range")

    log_budget = math.log(ripple_budget)

    def excess(ripple: float) -> float:
        # a ripple that rounds to zero or below is feasible by any margin
        return math.log(ripple) - log_budget if ripple > 0.0 else -math.inf

    x_lo, f_lo = math.log(lo), excess(ripple_lo)
    x_hi, f_hi = math.log(hi), excess(ripple_hi)
    steps_left = math.ceil(math.log2((x_hi - x_lo) / _LOG_TAU_TOL)) + _SLACK_STEPS
    margin = 0.5 * _LOG_TAU_TOL
    last_end = None
    while hi / lo - 1.0 > _TAU_REL_TOL:
        width, mid = x_hi - x_lo, 0.5 * (x_lo + x_hi)
        x = x_hi - f_hi * (width / (f_hi - f_lo))
        # A secant on a bracket end says that end holds the root to rounding,
        # and the clamp below turns it into the step that closes the bracket;
        # only a nan step, from a ripple that rounds to zero, bisects.
        if not x_lo <= x <= x_hi:
            x = mid
        # Keep the step half the tolerance inside the bracket, so that once
        # the secant sits on the root the next step lands across it, and
        # within reach of the midpoint.  The reach halves per step, so no
        # bracket is wider than bisection's would be _SLACK_STEPS steps earlier.
        reach = max(0.0, 0.5 * (_LOG_TAU_TOL * 2.0**steps_left - width))
        x = min(max(x, x_lo + margin, mid - reach), x_hi - margin, mid + reach)
        steps_left -= 1
        tau = math.exp(x)
        if not lo < tau < hi:
            # subnormal ends this close have no float between them to step to
            raise ValueError("ripple budget not resolvable: tau is below float resolution")
        ripple = metric(tau / resistance)
        if ripple <= ripple_budget:
            hi, x_hi, f_hi, ripple_hi = tau, x, excess(ripple), ripple
            if last_end == "hi":  # Illinois: halve the value at the end kept twice
                f_lo *= 0.5
            last_end = "hi"
        else:
            lo, x_lo, f_lo = tau, x, excess(ripple)
            if last_end == "lo":
                f_hi *= 0.5
            last_end = "lo"
    return result(hi / resistance, ripple_hi)


def time_trace(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    t_grid,
    truncation: int = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Tabulate the filter output voltage over a time grid (for CSV export).

    Returns a float64 ``(N, 2)`` array whose row i is ``(t_i, v_o(t_i))``.
    The CLI's table writer flattens it in one pass, with no per-row tuples.
    """
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array of times")
    scale = _amplification(filt.resistance, fc * filt.tau) * amplitude
    base = build_series(kind, truncation, scale=scale, fc=fc)
    return np.column_stack((ts, eval_filtered(filtered_series(base, filt), ts)))


def rectified_reference(
    kind: RectifierKind,
    resistance: float,
    amplitude: float,
    fc: float,
    t_grid,
) -> np.ndarray:
    """Pointwise ``R * g(sqrt(R) A cos(2 pi fc t))``: the tau = 0 output."""
    require_finite_positive("resistance", resistance)
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
    cosines = np.cos(2.0 * math.pi * _phases(fc, t_grid)).reshape(np.shape(t_grid))
    vin = math.sqrt(resistance) * amplitude * cosines
    return resistance * rectify(kind, vin)
