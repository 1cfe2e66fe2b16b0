"""Parallel RC low-pass filter acting on the rectified harmonic series.

The filter is the one-pole transfer function ``H(f) = R / (1 + j 2 pi f tau)``
with ``tau = R C``.  The matched front end scales the rectifier input by the
amplification factor ``sqrt(R / (1 + (2 pi fc tau)^2))``, so both the DC level
and every harmonic amplitude depend on the same time constant: small tau means
more DC and more ripple, large tau kills both.

The design layer samples the output on a uniform grid over one carrier period
many times.  :func:`period_grid` does that for a block of time constants at
once: one ``(m, K)`` filter matrix from :func:`filter_response`, one ``(m, n)``
spectrum and one inverse FFT along its rows; :func:`period_samples` and
:func:`period_extrema` are its one-row case.  :func:`eval_filtered` serves
arbitrary times: it evaluates the series as a polynomial in the phasor
``exp(j 2 pi fc t)`` by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .oracle import sharpen_max
from .rectifier import (
    DEFAULT_TRUNCATION,
    FourierSeries,
    RectifierKind,
    coefficients,
    fourier_coefficient,
    harmonic_sum,
    horner_coefficients,
    require_finite_positive,
)

__all__ = [
    "RcFilter",
    "FilteredSeries",
    "amplification_factor",
    "transfer",
    "filter_response",
    "filtered_series",
    "harmonic_amplitudes",
    "eval_filtered",
    "period_grid",
    "grid_extrema",
    "period_samples",
    "period_extrema",
    "dc_voltage",
    "aligned_peaks",
    "ripple_peak",
    "max_ripple",
    "dc_limits",
    "require_finite_positive",
]


@dataclass(frozen=True)
class RcFilter:
    """Load resistance (ohm) and smoothing capacitance (F), C = 0 allowed."""

    resistance: float
    capacitance: float

    def __post_init__(self):
        require_finite_positive("resistance", self.resistance)
        require_finite_positive("capacitance", self.capacitance, allow_zero=True)

    @property
    def tau(self) -> float:
        """RC time constant ``R * C`` in seconds."""
        return self.resistance * self.capacitance

    @property
    def cutoff(self) -> float:
        """Cut-off frequency ``1 / (2 pi tau)``; inf when tau = 0."""
        tau = self.tau
        if tau == 0.0:
            return math.inf
        return 1.0 / (2.0 * math.pi * tau)

    @classmethod
    def from_cutoff(cls, resistance: float, cutoff: float) -> "RcFilter":
        """Build the filter whose cut-off is ``cutoff``; +inf means C = 0."""
        require_finite_positive("resistance", resistance)
        if cutoff == math.inf:
            return cls(resistance, 0.0)
        require_finite_positive("cutoff", cutoff)
        denominator = 2.0 * math.pi * cutoff * resistance
        if denominator == 0.0:
            raise ValueError(f"cutoff {cutoff} with resistance {resistance} underflows")
        return cls(resistance, 1.0 / denominator)


def amplification_factor(filt: RcFilter, fc: float) -> float:
    """Matched-input voltage scaling ``sqrt(R / (1 + (2 pi fc tau)^2))``.

    Tends to ``sqrt(R)`` as tau -> 0 and to 0 as tau -> inf.
    """
    # tau = 0 gets its exact value: 2 pi fc may overflow, and inf * 0 is nan
    w = 2.0 * math.pi * fc * filt.tau if filt.tau else 0.0
    return math.sqrt(filt.resistance / (1.0 + w * w))


def transfer(filt: RcFilter, f: float) -> tuple[float, float]:
    """Magnitude and phase of ``H(f) = R / (1 + j 2 pi f tau)``.

    Returns ``(R / sqrt(1 + (2 pi f tau)^2), atan(-2 pi f tau))``.
    """
    wt = 2.0 * math.pi * f * filt.tau if filt.tau else 0.0  # as in amplification_factor
    return filt.resistance / math.sqrt(1.0 + wt * wt), math.atan(-wt)


def _omega_tau(fc: float, taus: list[float], truncation: int) -> np.ndarray:
    """``2 pi k fc tau`` for k = 1..K, one row per tau.

    Rows with tau = 0 are exact zeros: ``2 pi k fc`` may overflow, and
    ``inf * 0`` is nan.
    """
    if 0.0 in taus:
        wt = np.zeros((len(taus), truncation))
        nonzero = [r for r, tau in enumerate(taus) if tau]
        if nonzero:
            wt[nonzero] = _omega_tau(fc, [taus[r] for r in nonzero], truncation)
        return wt
    ks = np.arange(1, truncation + 1, dtype=float)
    return np.array(taus)[:, None] * (2.0 * np.pi * ks * fc)


def filter_response(
    resistance: float, fc: float, taus: list[float], truncation: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filter at harmonics k = 1..K of ``fc``, one row per time constant.

    Returns three read-only ``(m, K)`` matrices: the attenuation
    ``sqrt(1 + (2 pi k fc tau)^2)``, the gain ``|H(k fc)| = R / attenuation``
    and the phase ``angle H(k fc) = atan(-2 pi k fc tau)``.
    """
    wt = _omega_tau(fc, taus, truncation)
    atten = np.sqrt(1.0 + wt * wt)
    gains = resistance / atten
    phases = np.arctan(-wt)
    for matrix in (atten, gains, phases):
        matrix.setflags(write=False)
    return atten, gains, phases


def harmonic_amplitudes(ak: np.ndarray, gains: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Complex amplitudes ``a_k |H(k fc)| exp(j angle H(k fc))``, row by row."""
    return (gains * ak) * np.exp(1j * phases)


@dataclass(frozen=True)
class FilteredSeries:
    """A rectified series with the per-harmonic filter gain and phase attached.

    ``gains[i]`` and ``phase_shifts[i]`` are ``|H(k fc)|`` and ``angle H(k fc)``
    for harmonic ``k = i + 1``.
    """

    base: FourierSeries
    filt: RcFilter
    gains: np.ndarray
    phase_shifts: np.ndarray

    @property
    def dc_level(self) -> float:
        """DC term ``scale * a0 * R / 2`` of the filtered output."""
        return self.base.scale * self.base.a0 * self.filt.resistance / 2.0

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """:func:`harmonic_amplitudes` of this series, read-only."""
        amps = harmonic_amplitudes(self.base.ak, self.gains, self.phase_shifts)
        amps.setflags(write=False)
        return amps

    @cached_property
    def horner(self) -> tuple[list, list]:
        """:func:`rectenna.rectifier.horner_coefficients` of :attr:`amplitudes`."""
        return horner_coefficients(self.amplitudes)


def filtered_series(series: FourierSeries, filt: RcFilter) -> FilteredSeries:
    """Attach ``|H(k fc)|`` and ``angle H(k fc)`` for k = 1..K."""
    if series.fundamental_fc <= 0:
        raise ValueError("series fundamental frequency must be > 0")
    _, gains, phases = filter_response(
        filt.resistance, series.fundamental_fc, [filt.tau], series.truncation
    )
    return FilteredSeries(base=series, filt=filt, gains=gains[0], phase_shifts=phases[0])


def eval_filtered(fs: FilteredSeries, t):
    """Evaluate the filter output series at time(s) t.

    ``scale * (a0 R / 2 + sum_k |H(k fc)| a_k cos(2 pi k fc t + angle H(k fc)))``
    (the per-harmonic sign of ``a_k`` absorbs the 0/pi rectifier phase).
    The sum is ``Re sum_k c_k z^k`` in the phasor ``z = exp(j 2 pi fc t)``,
    with ``c_k`` = :attr:`FilteredSeries.amplitudes`, evaluated by Horner's
    rule (:func:`rectenna.rectifier.harmonic_sum`): one cos/sin pair per
    time, not one cos per harmonic.  A scalar t returns a float, bitwise
    equal to the array path's element.
    """
    base = fs.base
    dc = 0.5 * base.a0 * fs.filt.resistance
    return base.scale * (dc + harmonic_sum(fs.horner, base.fundamental_fc, t))


def period_grid(amplitudes: np.ndarray, scales, dc: float, n: int) -> np.ndarray:
    """Outputs at ``t_i = i / (n fc)``, i = 0..n-1, for each row of ``amplitudes``.

    Row r is ``scales[r] * (dc + sum_k Re(c_k exp(j 2 pi k i / n)))`` with
    ``c_k = amplitudes[r, k - 1]``.  Harmonic k lands in bin ``k mod n``,
    added in harmonic order, where it aliases exactly on this grid; so every
    n >= 2 gives :func:`eval_filtered`'s values up to roundoff.  One
    ``(m, n)`` spectrum and one inverse FFT along its rows serve all m rows,
    and each row is bitwise what it would be alone.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    rows, truncation = amplitudes.shape
    spectrum = np.zeros((rows, n), dtype=complex)
    # harmonics start .. start + n - 1 fill bins 0 .. n - 1 once each
    for start in range(0, truncation + 1, n):
        lo, hi = max(start, 1), min(start + n, truncation + 1)
        spectrum[:, lo - start : hi - start] += amplitudes[:, lo - 1 : hi - 1]
    values = np.fft.ifft(spectrum, axis=1, out=spectrum).real * n
    values += dc
    values *= np.asarray(scales, dtype=float)[:, None]
    return values


def grid_extrema(
    amplitudes: np.ndarray,
    scales,
    dc: float,
    fc: float,
    n: int,
    row_series: Callable[[int], FilteredSeries],
) -> tuple[list[float], list[float]]:
    """Max and min of each :func:`period_grid` row over one carrier period.

    Each max is sharpened as :func:`rectenna.oracle.sample_stats` does it,
    with the direct evaluator on ``row_series(r)``, the row's series; each
    min is the grid's.  ``row_series`` is called only where the grid is
    coarse enough to sharpen.
    """
    values = period_grid(amplitudes, scales, dc, n)
    spacing = (1.0 / fc) / n
    built = {}  # row series, built on first use: on fine grids nothing is evaluated

    def evaluate(r: int, t):
        if r not in built:
            built[r] = row_series(r)
        return eval_filtered(built[r], t)

    vmaxs = []
    for r, idx in enumerate(np.argmax(values, axis=1).tolist()):
        vmax, _ = sharpen_max(partial(evaluate, r), idx * spacing, float(values[r, idx]), spacing)
        vmaxs.append(vmax)
    return vmaxs, values.min(axis=1).tolist()


def _one_row(fs: FilteredSeries) -> tuple[np.ndarray, tuple[float], float]:
    # the series as a one-row block: amplitudes, scales and dc for period_grid
    return fs.amplitudes[None, :], (fs.base.scale,), 0.5 * fs.base.a0 * fs.filt.resistance


def period_samples(fs: FilteredSeries, n: int) -> np.ndarray:
    """The output at ``t_i = i / (n fc)``, i = 0..n-1: :func:`period_grid` of one row."""
    return period_grid(*_one_row(fs), n)[0]


def period_extrema(fs: FilteredSeries, n: int) -> tuple[float, float]:
    """Max and min of the output over one carrier period, from n samples.

    :func:`grid_extrema` of one row: the max is sharpened with the direct
    evaluator, the min is the grid's.
    """
    (vmax,), (vmin,) = grid_extrema(*_one_row(fs), fs.base.fundamental_fc, n, lambda _: fs)
    return vmax, vmin


def dc_voltage(kind: RectifierKind, filt: RcFilter, amplitude: float, fc: float) -> float:
    """Time-averaged filter output ``delta * A * R * a0 / 2``."""
    delta = amplification_factor(filt, fc)
    return delta * amplitude * filt.resistance * fourier_coefficient(kind, 0) / 2.0


def ripple_peak(
    kind: RectifierKind,
    filt: RcFilter,
    amplitude: float,
    fc: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> float:
    """Aligned-phase peak approximation of the filter output.

    ``delta A R (a0/2 + sum_k a_k / sqrt(1 + (2 pi k fc tau)^2))``: every
    harmonic attenuated but not phase-shifted, as if all peaked at t = 0.
    Exact at tau = 0 (where it is ``max_ripple``).  For tau > 0 it is an
    approximation, not a bound: it sums the signed ``a_k``, and at fc = 915
    MHz, R = 2 ohm, K = 256 it read below the sampled peak at every cut-off
    checked (minus DC, 0.00655 V against 0.00701 V at a 1e8 Hz cut-off).
    """
    atten, _, _ = filter_response(filt.resistance, fc, [filt.tau], truncation)
    scale = amplification_factor(filt, fc) * amplitude
    return float(aligned_peaks(kind, (scale,), filt.resistance, atten)[0])


def aligned_peaks(kind: RectifierKind, scales, resistance: float, atten: np.ndarray) -> np.ndarray:
    """:func:`ripple_peak` for each row of a :func:`filter_response` attenuation.

    ``scale R (a0/2 + sum_k a_k / atten_k)``, where ``scale`` is the row's
    input peak ``delta A``.
    """
    harmonics = np.sum(coefficients(kind, atten.shape[1]) / atten, axis=1)
    a0 = fourier_coefficient(kind, 0)
    return np.asarray(scales, dtype=float) * resistance * (0.5 * a0 + harmonics)


def max_ripple(
    kind: RectifierKind,
    amplitude: float,
    resistance: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> float:
    """Unfiltered (tau = 0) peak: ``A R sqrt(R) (a0/2 + sum_k a_k)``.

    :func:`ripple_peak` at C = 0, where the carrier drops out.  Converges to
    ``A R^(3/2)`` as the truncation grows, for both rectifiers.
    """
    return ripple_peak(kind, RcFilter(resistance, 0.0), amplitude, 1.0, truncation)


def dc_limits(kind: RectifierKind, resistance: float, amplitude: float) -> tuple[float, float]:
    """DC voltage range over all time constants: ``(0, A R sqrt(R) a0 / 2)``.

    The low end is the tau -> inf limit, the high end is attained at tau = 0.
    """
    high = math.sqrt(resistance) * amplitude * resistance * fourier_coefficient(kind, 0) / 2.0
    return 0.0, high
