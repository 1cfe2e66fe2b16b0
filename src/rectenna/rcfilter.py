"""Parallel RC low-pass filter acting on the rectified harmonic series.

The filter is the one-pole transfer function ``H(f) = R / (1 + j 2 pi f tau)``
with ``tau = R C``.  The matched front end scales the rectifier input by the
amplification factor ``sqrt(R / (1 + (2 pi fc tau)^2))``, so both the DC level
and every harmonic amplitude depend on the same time constant: small tau means
more DC and more ripple, large tau kills both.

The design layer samples the output on a uniform grid over one carrier period
many times; :func:`period_samples` does that with one inverse FFT.
:func:`eval_filtered` serves arbitrary times: it evaluates the series as a
polynomial in the phasor ``exp(j 2 pi fc t)`` by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    "filtered_series",
    "eval_filtered",
    "period_samples",
    "period_extrema",
    "dc_voltage",
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
        """Complex harmonic amplitudes ``a_k |H(k fc)| exp(j angle H(k fc))``."""
        amps = (self.gains * self.base.ak) * np.exp(1j * self.phase_shifts)
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
    ks = np.arange(1, series.truncation + 1, dtype=float)
    # exact tau = 0 values (gains R, phases atan(-0.0)) even where 2 pi k fc overflows
    wt = 2.0 * np.pi * ks * series.fundamental_fc * filt.tau if filt.tau else np.zeros_like(ks)
    gains = filt.resistance / np.sqrt(1.0 + wt * wt)
    phase_shifts = np.arctan(-wt)
    gains.setflags(write=False)
    phase_shifts.setflags(write=False)
    return FilteredSeries(base=series, filt=filt, gains=gains, phase_shifts=phase_shifts)


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


def period_samples(fs: FilteredSeries, n: int) -> np.ndarray:
    """The output at ``t_i = i / (n fc)``, i = 0..n-1, by one inverse FFT.

    Harmonic k of complex amplitude ``a_k |H_k| exp(j angle H_k)`` lands in
    bin ``k mod n``, where it aliases exactly on this grid, so every n >= 2
    gives :func:`eval_filtered`'s values on the grid up to roundoff.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    base = fs.base
    amps = fs.amplitudes
    bins = np.arange(1, base.truncation + 1) % n
    spectrum = np.bincount(bins, weights=amps.real, minlength=n) + 1j * np.bincount(
        bins, weights=amps.imag, minlength=n
    )
    dc = 0.5 * base.a0 * fs.filt.resistance
    return base.scale * (dc + n * np.fft.ifft(spectrum).real)


def period_extrema(fs: FilteredSeries, n: int) -> tuple[float, float]:
    """Max and min of the output over one carrier period, from n samples.

    The max is sharpened as :func:`rectenna.oracle.sample_stats` does it,
    with the direct evaluator; the min is the grid's.
    """
    values = period_samples(fs, n)
    idx = int(np.argmax(values))
    spacing = (1.0 / fs.base.fundamental_fc) / n
    vmax, _ = sharpen_max(
        lambda t: eval_filtered(fs, t), idx * spacing, float(values[idx]), spacing
    )
    return vmax, float(values.min())


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
    delta = amplification_factor(filt, fc)
    ks = np.arange(1, truncation + 1, dtype=float)
    ak = coefficients(kind, truncation)
    wt = 2.0 * np.pi * ks * fc * filt.tau if filt.tau else np.zeros_like(ks)
    atten = np.sqrt(1.0 + wt**2)
    harmonics = float(np.sum(ak / atten))
    a0 = fourier_coefficient(kind, 0)
    return delta * amplitude * filt.resistance * (0.5 * a0 + harmonics)


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
