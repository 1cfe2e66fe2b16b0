"""Parallel RC low-pass filter acting on the rectified harmonic series.

The filter is the one-pole transfer function ``H(f) = R / (1 + j 2 pi f tau)``
with ``tau = R C``.  The matched front end scales the rectifier input by the
amplification factor ``sqrt(R / (1 + (2 pi fc tau)^2))``.  Both, like every
output, see the carrier only through ``x = fc tau`` (and time only through
the phase ``fc t``): small x means more DC and more ripple, large x kills
both.  Public functions check their inputs and form x once; the private
helpers take x, never fc, so x = 0 is exactly unfiltered at any carrier.
Three rules still read fc or seconds on their own: the 1e-12 s polish
spacing of :func:`grid_extrema`, :func:`taylor_table`'s refusal where
``2 pi K fc`` overflows, and the capacitance solve's bracket in seconds.

The design layer samples the output on a uniform grid over one carrier period
many times.  :func:`period_grid` does that for a block of time constants at
once.  The rectified carrier has only c_1 and even harmonics, so n must be
even, and the grid reads only the 1 + K/2 live columns (k = 1 and the even
k; :func:`_live`): the even ones fold into an ``(m, n/4 + 1)`` one-sided
spectrum, one real inverse FFT of length n/2 along its rows gives them on
half the grid, and the c_1 cosine is then added on one half period and
subtracted on the other, a row at a time.  The design layer's sweep
and its one-row ripple metric form their transfers at the live k only, as
one matrix per chunk of cut-offs, from a live ``2 pi k`` row and a live
coefficient row cached per K and per (kind, K), and run the grid on blocks
of its rows; they skip the public functions' argument checks and build no
series object.  :func:`period_samples` and
:func:`period_extrema` are the one-row case.  Where that grid is coarser
than 1e-12 s, :func:`grid_extrema` Newton-polishes both its extrema on the
exact trig polynomial, with one stacked product for the Taylor
coefficients of every row's argmax and argmin; finer grids keep their grid
extrema.  Its grid lives in a per-thread scratch array that later calls
reuse; where c_1 is zero (the full wave) only the first half period is
written and read.
:func:`eval_filtered` serves arbitrary times from a Taylor table
(:func:`taylor_table`): one period grid whose D + 1 rows are the series'
first D + 1 Taylor coefficients at every grid phase, built once per series.
A time is then a table lookup at the nearest grid phase and a degree-D
polynomial in the offset from it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rectifier import (
    DEFAULT_TRUNCATION,
    FourierSeries,
    RectifierKind,
    coefficients,
    fourier_coefficient,
    require_finite_positive,
    table_sum,
)

__all__ = [
    "RcFilter",
    "FilteredSeries",
    "amplification_factor",
    "filtered_series",
    "eval_filtered",
    "taylor_table",
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

# grids coarser than this (seconds per sample) get Newton-polished extrema;
# in seconds, not fc * n, since which grids are polished moves printed digits
_POLISH_SPACING = 1e-12
# Taylor tail a local polynomial or table drops, relative to sum_k |c_k|
_TAYLOR_TAIL = 1e-17
# grid samples per block of Taylor table rows built by one inverse FFT: a
# K = 256 table's 18 rows of 1024 take two blocks (three with 1 << 13), and
# a K = 1024 table peaks at ~1.4x its own 590 KB while built (its cached
# factors apart), against ~1.7x with 1 << 15
_TABLE_BLOCK_CELLS = 1 << 14
# Newton on the local polynomial: step cap, and the step (in grid steps)
# below which the next one would move the value by less than roundoff
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-9
# period grid scratch arrays, per thread so concurrent calls never share one;
# reused so a sweep's blocks do not fault in fresh pages on every call
_SCRATCH = threading.local()
_SCRATCH_SHAPES = 4


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
    require_finite_positive("fc", fc)
    return _amplification(filt.resistance, fc * filt.tau)


def _amplification(resistance: float, x: float) -> float:
    """:func:`amplification_factor` at ``x = fc tau``, unchecked."""
    w = 2.0 * math.pi * x
    return math.sqrt(resistance / (1.0 + w * w))


def _omega_tau(xs, omegas: np.ndarray) -> np.ndarray:
    """``2 pi k x`` for the ``2 pi k`` row ``omegas``, one row per ``x = fc tau``;
    x = 0 gives zeros."""
    return np.array(xs, dtype=float)[:, None] * omegas


@lru_cache(maxsize=8)
def _harmonic_omegas(truncation: int) -> np.ndarray:
    """``2 pi k`` for k = 1..K, read-only: one row for every carrier and tau."""
    omegas = 2.0 * np.pi * np.arange(1, truncation + 1, dtype=float)
    omegas.setflags(write=False)
    return omegas


def _live(values: np.ndarray) -> np.ndarray:
    """The live columns of a last axis that runs over k = 1..K: k = 1, then
    the even k.  The rectifier's odd harmonics k >= 3 are exact zeros, so
    the period grid reads only these 1 + K // 2 columns."""
    return np.concatenate((values[..., :1], values[..., 1::2]), axis=-1)


@lru_cache(maxsize=8)
def _live_harmonics(truncation: int) -> np.ndarray:
    """The live k (1, 2, 4, ..., up to K) as integers, read-only."""
    harmonics = _live(np.arange(1, truncation + 1))
    harmonics.setflags(write=False)
    return harmonics


@lru_cache(maxsize=8)
def _live_omegas(truncation: int) -> np.ndarray:
    """:func:`_harmonic_omegas` at the live k, read-only."""
    omegas = _live(_harmonic_omegas(truncation))
    omegas.setflags(write=False)
    return omegas


@lru_cache(maxsize=16)
def _live_coefficients(kind: RectifierKind, truncation: int) -> np.ndarray:
    """The rectifier coefficients ``a_k`` at the live k, read-only."""
    live = _live(coefficients(kind, truncation))
    live.setflags(write=False)
    return live


def _transfers(resistance: float, wt: np.ndarray) -> np.ndarray:
    """``H = R / (1 + j wt)`` for an :func:`_omega_tau` matrix, read-only.

    The denominator is assembled from its parts: ``1j * wt`` would hold
    ``0 * inf = nan`` where wt overflows, and H is 0 there.
    """
    denominator = np.empty(wt.shape, dtype=complex)
    denominator.real = 1.0
    denominator.imag = wt
    transfers = resistance / denominator
    transfers.setflags(write=False)
    return transfers


@dataclass(frozen=True)
class FilteredSeries:
    """A rectified series with the per-harmonic filter transfer attached.

    ``transfers[i]`` is the complex ``H(k fc)`` for harmonic ``k = i + 1``.
    """

    base: FourierSeries
    filt: RcFilter
    transfers: np.ndarray

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Complex amplitudes ``c_k = a_k H(k fc)``, read-only."""
        amps = self.base.ak * self.transfers
        amps.setflags(write=False)
        return amps

    @cached_property
    def table(self) -> np.ndarray:
        """:func:`taylor_table` of :attr:`amplitudes`, built on first use."""
        return taylor_table(self.amplitudes, self.base.fundamental_fc)


def filtered_series(series: FourierSeries, filt: RcFilter) -> FilteredSeries:
    """Attach ``H(k fc)`` for k = 1..K."""
    require_finite_positive("fc", series.fundamental_fc)
    wt = _omega_tau([series.fundamental_fc * filt.tau], _harmonic_omegas(series.truncation))
    return FilteredSeries(base=series, filt=filt, transfers=_transfers(filt.resistance, wt)[0])


def eval_filtered(fs: FilteredSeries, t):
    """Evaluate the filter output series at time(s) t.

    ``scale * (a0 R / 2 + sum_k |H(k fc)| a_k cos(2 pi k fc t + angle H(k fc)))``
    (the per-harmonic sign of ``a_k`` absorbs the 0/pi rectifier phase).
    The sum is ``Re sum_k c_k exp(j 2 pi k fc t)`` with ``c_k`` =
    :attr:`FilteredSeries.amplitudes`, read from the series' Taylor table
    (:func:`rectenna.rectifier.table_sum`): a lookup at the nearest of n
    grid phases and D + 1 multiply-adds per time, whatever K.  A scalar t
    returns a float, bitwise equal to the array path's element.  Raises
    ``ValueError`` where ``2 pi K fc`` is not a finite float, or a phase
    ``fc t`` is not.
    """
    base = fs.base
    dc = 0.5 * base.a0 * fs.filt.resistance
    return base.scale * (dc + table_sum(fs.table, base.fundamental_fc, t))


def _work_arrays(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """New spectrum and c_1-term arrays for a ``(rows, n)`` grid, n even:
    the ``(rows, n/4 + 1)`` one-sided spectrum of the half grid, and one
    half-period row that each grid row's c_1 term passes through."""
    return np.empty((rows, n // 4 + 1), dtype=complex), np.empty(n // 2)


def _scratch(rows: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's :func:`_work_arrays` and grid for a ``(rows, n)`` grid.

    Kept for the last few shapes used, oldest dropped first.
    """
    spaces = _SCRATCH.__dict__.setdefault("spaces", {})
    key = (rows, n)
    if key not in spaces:
        if len(spaces) >= _SCRATCH_SHAPES:
            del spaces[next(iter(spaces))]
        spaces[key] = (*_work_arrays(rows, n), np.empty((rows, n)))
    return spaces[key]


def _fold_one_sided(spectrum: np.ndarray, placed: np.ndarray, points: int) -> None:
    """Fold ``placed[:, f - 1]``, the amplitude of frequency f = 1..F on a
    ``points``-sample grid, into the one-sided ``spectrum`` (zeroed first).

    Frequency f aliases exactly into bin ``b = f mod points``; a bin above
    ``points / 2`` is the conjugate of bin ``points - b``.  Each bin adds its
    frequencies in increasing order, as ``np.bincount`` would.  The sums run
    in place on views of ``spectrum``, with no copy back.
    """
    spectrum.fill(0.0)
    top, half = placed.shape[1], points // 2
    for start in range(0, top + 1, points):
        lo, hi = max(start, 1), min(start + points, top + 1)
        mid = min(hi, start + half + 1)
        bins = spectrum[:, lo - start : mid - start]
        np.add(bins, placed[:, lo - 1 : mid - 1], out=bins)
        if mid < hi:
            mirrored = placed[:, mid - 1 : hi - 1][:, ::-1].conj()
            bins = spectrum[:, start + points - hi + 1 : start + points - mid + 1]
            np.add(bins, mirrored, out=bins)


def _check_samples(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"need an even number of samples >= 2, got {n}")


def _check_odd_harmonics(amplitudes: np.ndarray) -> None:
    if np.any(amplitudes[..., 2::2]):
        raise ValueError("odd harmonics k >= 3 must be zero, as the rectifier's are")


def _check_grid(amplitudes: np.ndarray, scales, dc: float, n: int) -> None:
    # the arguments period_grid and grid_extrema refuse
    _check_samples(n)
    if np.ndim(amplitudes) != 2 or amplitudes.shape[1] < 1:
        raise ValueError("amplitudes must be a 2-D block with K >= 1 harmonics per row")
    scales = np.asarray(scales, dtype=float)
    if scales.shape != amplitudes.shape[:1] or not ((scales >= 0) & (scales < math.inf)).all():
        raise ValueError("need one finite scale >= 0 per row of amplitudes")
    if not math.isfinite(dc):
        raise ValueError(f"dc must be finite, got {dc}")
    _check_odd_harmonics(amplitudes)


def _fill_grid(live: np.ndarray, scales, dc: float, n: int, spectrum, fundamental, grid) -> bool:
    """The period grid of the live amplitudes (:func:`_live`: k = 1, then
    the even k), written into the ``(rows, n)`` array ``grid`` with
    :func:`_work_arrays` ``spectrum`` and ``fundamental``.  n must be even.
    Returns False, and leaves the grid's second half period unwritten,
    where every row's c_1 is zero: it would repeat the first then.
    """
    scales = np.asarray(scales, dtype=float)
    # harmonic 2j is frequency j on the half grid
    points = n // 2
    placed = live[:, 1:]
    _fold_one_sided(spectrum, placed, points)
    # irfft (norm="forward") sums bin 0, the Nyquist bin and 2 Re of the rest;
    # the bins above the last harmonic's, the Nyquist bin among them, hold 0.
    # Each step runs in place on a view, with no copy back.
    top = min(placed.shape[1], points // 2)
    bin0, used = spectrum[:, 0], spectrum[:, : top + 1]
    np.add(bin0, dc, out=bin0)
    np.multiply(used, (0.5 * scales)[:, None], out=used)
    np.multiply(bin0, 2.0, out=bin0)
    if points % 2 == 0 and top == points // 2:
        nyquist = spectrum[:, top]
        np.multiply(nyquist, 2.0, out=nyquist)
    np.fft.irfft(spectrum, points, axis=1, norm="forward", out=grid[:, :points])
    c1 = (live[:, 0] * scales).tolist()
    if not any(c1):
        return False
    # L_i = Re(c_1 w^i) for i < n/2, then E_i -+ L_i on both half periods,
    # a row at a time: each half row is contiguous, and L stays in cache
    cos, sin = _half_period_roots(n)
    for c, row in zip(c1, grid):
        low, high = row[:points], row[points:]
        np.multiply(sin, c.imag, out=high)
        np.multiply(cos, c.real, out=fundamental)
        np.subtract(fundamental, high, out=fundamental)
        np.subtract(low, fundamental, out=high)
        np.add(low, fundamental, out=low)
    return True


def period_grid(amplitudes: np.ndarray, scales, dc: float, n: int) -> np.ndarray:
    """Outputs at ``t_i = i / (n fc)``, i = 0..n-1, for each row of ``amplitudes``.

    Row r is ``scales[r] * (dc + sum_k Re(c_k exp(j 2 pi k i / n)))`` with
    ``c_k = amplitudes[r, k - 1]``.  ``ValueError`` unless ``amplitudes`` is
    2-D with K >= 1 columns, ``scales`` holds one finite value >= 0 per
    row, dc is finite, n is even and the odd harmonics k >= 3 are exactly
    zero, as the rectifier's are.  The sum splits by parity as ``E_i + L_i``
    with ``L_i = Re(c_1 exp(j 2 pi i / n))``: E has period n/2, and
    ``L_(i + n/2) = -L_i``.  So one real inverse FFT of length n/2 gives E,
    with harmonic 2j folded into bin j of a one-sided spectrum
    (:func:`_fold_one_sided`; the row scale and dc folded in too), and the
    output is ``E_i + L_i`` and ``E_i - L_i`` on the two half periods.
    Harmonics alias exactly on the grid, so every even n >= 2 gives
    :func:`eval_filtered`'s values up to roundoff, and each row is bitwise
    what it would be alone.  The result is a new array; the thread's
    scratch arrays are left as they are.
    """
    _check_grid(amplitudes, scales, dc, n)
    rows = amplitudes.shape[0]
    grid = np.empty((rows, n))
    if not _fill_grid(_live(amplitudes), scales, dc, n, *_work_arrays(rows, n), grid):
        grid[:, n // 2 :] = grid[:, : n // 2]
    return grid


def taylor_table(amplitudes: np.ndarray, fc: float) -> np.ndarray:
    """Taylor table of ``Re sum_k c_k exp(j k theta)`` on n grid phases, read-only.

    ``c_k = amplitudes[k - 1]``, k = 1..K.  Row p, column i is ``r_p(i) =
    Re sum_k c_k w^(i k) (j k h)^p / p!`` with ``w = exp(j h)``, ``h = 2 pi
    / n`` and n the least power of two >= 4K, so that ``sum_p r_p(i) u^p``
    is the sum at ``theta = (i + u) h``.  D is the first degree whose
    dropped tail for ``|u| <= 1/2`` is below 1e-17 of ``sum_k |c_k|``
    (:func:`_taylor_degree`); D = 17 at K = 256, n = 1024.  The D + 1 rows
    are the :func:`period_grid` of the amplitudes ``c_k (j k h)^p / p!``,
    whose odd harmonics k >= 3 stay zero, so only the live k are formed.
    :func:`rectenna.rectifier.table_sum` evaluates it.  Raises
    ``ValueError`` unless ``amplitudes`` is 1-D with K >= 1 entries and
    zero odd harmonics k >= 3, and fc is finite and > 0; and where ``2 pi
    K fc`` is not a finite float: the top harmonic of a carrier ``fc`` has
    no angular frequency there.

    The factors ``(j k h)^p / p!`` at the live k are one matrix cached per
    K (:func:`_table_factors`), so a block of rows takes one product with
    the live amplitudes and one inverse FFT.  Blocks share one set of work
    arrays, so a K = 1024 table peaks at ~1.4x its own size while built.
    """
    if np.ndim(amplitudes) != 1 or amplitudes.shape[0] < 1:
        raise ValueError("amplitudes must be a 1-D row of K >= 1 harmonics")
    require_finite_positive("fc", fc)
    truncation = amplitudes.shape[0]
    # the table reads no fc, but near the float maximum a trace's times
    # (2 / fc / 1024 apart) are subnormal and their phases fc t meaningless
    if not math.isfinite(2.0 * math.pi * truncation * fc):
        raise ValueError("result is not finite; an input is out of range")
    _check_odd_harmonics(amplitudes)
    n, factors = _table_factors(truncation)
    live = _live(amplitudes)
    table = np.empty((factors.shape[0], n))
    block = min(factors.shape[0], max(1, _TABLE_BLOCK_CELLS // n))
    spectrum, fundamental = _work_arrays(block, n)
    rows = np.empty((block, live.shape[0]), dtype=complex)
    ones = np.ones(block)
    for start in range(0, factors.shape[0], block):
        block_rows = table[start : start + block]
        m = block_rows.shape[0]
        np.multiply(live, factors[start : start + m], out=rows[:m])
        if not _fill_grid(rows[:m], ones[:m], 0.0, n, spectrum[:m], fundamental, block_rows):
            block_rows[:, n // 2 :] = block_rows[:, : n // 2]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _table_factors(truncation: int) -> tuple[int, np.ndarray]:
    """n and the ``(D + 1, 1 + K/2)`` factors ``(j k h)^p / p!`` of
    :func:`taylor_table` at the live k (:func:`_live`), read-only.

    A running product gives the real ``(k h)^p / p!`` a row at a time, and
    multiplying it by ``j^p`` is exact.
    """
    n = 1 << (4 * truncation - 1).bit_length()
    h = 2.0 * np.pi / n
    kh = h * _live_harmonics(truncation)
    magnitude = np.ones(kh.shape[0])
    factors = np.empty((_taylor_degree(0.5 * truncation * h) + 1, kh.shape[0]), dtype=complex)
    for p, row in enumerate(factors):
        if p:
            magnitude *= kh
            magnitude /= p
        np.multiply((1.0, 1j, -1.0, -1j)[p % 4], magnitude, out=row)
    factors.setflags(write=False)
    return n, factors


@lru_cache(maxsize=8)
def _roots_of_unity(n: int) -> np.ndarray:
    """``exp(j 2 pi m / n)`` for m = 0..n-1, read-only.

    Angles are taken in ``(-pi, pi]``, so each root is within roundoff of
    exact; :func:`_local_polynomials` indexes it by ``(i k) mod n``, which
    is exact integer arithmetic.
    """
    m = np.arange(n)
    m[2 * m > n] -= n
    roots = np.exp((2j * np.pi / n) * m)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=8)
def _half_period_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the first n/2 of :func:`_roots_of_unity`,
    as contiguous read-only arrays (bitwise the same values)."""
    roots = _roots_of_unity(n)[: n // 2]
    cos, sin = np.ascontiguousarray(roots.real), np.ascontiguousarray(roots.imag)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _taylor_degree(x: float) -> int:
    """The degree D at which a Taylor expansion in ``u`` is cut, ``x = K h |u|``.

    For ``sum_k b_k exp(j k (theta + u h))`` the terms beyond degree D add
    at most ``sum_k |b_k|`` times ``sum_{p > D} x^p / p!``.  D is the first
    degree where that sum's geometric bound, ``x^(D+1) / (D+1)!`` over
    ``1 - x / (D+2)``, is below 1e-17.
    """
    degree, term = 0, x
    while term >= _TAYLOR_TAIL * (1.0 - x / (degree + 2)):
        degree += 1
        term *= x / (degree + 1)
    return degree


@lru_cache(maxsize=8)
def _taylor_table(truncation: int, n: int) -> np.ndarray:
    """Real ``(2K, D + 1)`` Taylor matrix W, read-only, for ``h = 2 pi / n``.

    For complex ``b_1 .. b_K``, ``(b.view(float) @ W)[p]`` is
    ``Re sum_k b_k (j k h)^p / p!``: rows 2(k-1) and 2(k-1) + 1 hold the
    real part and the negated imaginary part of ``(j k h)^p / p!``.  D is
    :func:`_taylor_degree` for |u| <= 1.
    """
    h = 2.0 * np.pi / n
    degree = _taylor_degree(truncation * h)
    kh = h * np.arange(1, truncation + 1)
    powers = np.empty((truncation, degree + 1), dtype=complex)
    powers[:, 0] = 1.0
    for p in range(1, degree + 1):
        powers[:, p] = powers[:, p - 1] * (1j * kh) / p
    table = np.empty((2 * truncation, degree + 1))
    table[0::2] = powers.real
    table[1::2] = -powers.imag
    table.setflags(write=False)
    return table


def _local_polynomials(live: np.ndarray, indices: list[list[int]], n: int, truncation: int):
    """Coefficients ``r_p`` of ``Re sum_k c_k exp(j k (theta_i + u h)) = sum_p r_p u^p``
    for each lane: row r of the live amplitudes (:func:`_live`; ``c_k`` is
    zero at the dead k) at grid point ``i = indices[s][r]``, for each set s
    of one index per row.  Lane ``s * rows + r`` of the result.

    ``theta_i = i h`` and ``h = 2 pi / n``; the expansion holds to 1e-17 of
    ``sum_k |c_k|`` for |u| <= 1.  One stacked product of each lane's
    ``(1, 2K)`` row with the same :func:`_taylor_table`, so a lane's
    coefficients do not depend on the other lanes.
    """
    phases = np.multiply.outer(np.array(indices, dtype=np.intp), _live_harmonics(truncation))
    phases %= n
    roots = _roots_of_unity(n).take(phases)
    shifted = np.zeros((len(indices), live.shape[0], truncation), dtype=complex)
    np.multiply(live[:, :1], roots[..., :1], out=shifted[..., :1])
    np.multiply(live[:, 1:], roots[..., 1:], out=shifted[..., 1::2])
    stacked = shifted.view(float).reshape(-1, 1, 2 * truncation)
    return (stacked @ _taylor_table(truncation, n))[:, 0].tolist()


def _newton_extremum(coeffs: list[float], sign: float) -> float:
    """``sum_p coeffs[p] u^p`` at the Newton extremum nearest u = 0, |u| <= 1.

    Seeks a maximum for sign = +1 and a minimum for sign = -1; stops where
    the second derivative has the wrong sign for one, or after a step below
    1e-9, where only the value is evaluated.  At u = 0 the value, slope and
    half curvature are the first three coefficients (a degree below 2 has
    no curvature).
    """
    value, slope, half_curve = (coeffs + [0.0, 0.0])[:3]
    backwards = coeffs[::-1]
    u = 0.0
    for _ in range(_NEWTON_STEPS):
        if sign * half_curve >= 0.0:
            break
        u_next = min(1.0, max(-1.0, u - 0.5 * slope / half_curve))
        step, u = u_next - u, u_next
        if abs(step) <= _NEWTON_TOL:
            value = 0.0
            for c in backwards:
                value = value * u + c
            break
        value = slope = half_curve = 0.0
        for c in backwards:
            half_curve = half_curve * u + slope
            slope = slope * u + value
            value = value * u + c
    return value


def grid_extrema(
    amplitudes: np.ndarray, scales, dc: float, fc: float, n: int
) -> tuple[list[float], list[float]]:
    """Max and min of each :func:`period_grid` row over one carrier period.

    Refuses what :func:`period_grid` refuses, and a carrier fc that is not
    finite and > 0 (``ValueError``).  Where the grid spacing ``1 / (fc n)``
    is coarser than 1e-12 s, both grid extrema are Newton-polished on the
    exact trig polynomial: the row's series is expanded around the grid
    argmax and argmin in powers of the offset u (in grid steps, ``|u| <=
    1``; :func:`_local_polynomials`), and Newton's method runs on that
    polynomial (:func:`_newton_extremum`).  Each result is the better of the
    grid value and the polished one.  Finer grids keep their grid extrema,
    which already lie within ``scale (2 pi / n)^2 / 8 sum_k k^2 |c_k|`` of
    the exact ones.  So do grids with fewer than two samples per period of
    the top harmonic (``n < 2K``): there the expansion over one step loses
    about ``exp(2 pi K / n)`` in precision, and the grid extremum need not
    sit one step from the exact one.  Each row is bitwise what it would be
    alone.
    """
    _check_grid(amplitudes, scales, dc, n)
    require_finite_positive("fc", fc)
    return _grid_extrema(_live(amplitudes), scales, dc, fc, n, amplitudes.shape[1])


def _grid_extrema(
    live: np.ndarray, scales, dc: float, fc: float, n: int, truncation: int
) -> tuple[list[float], list[float]]:
    """:func:`grid_extrema` of the live amplitudes (:func:`_live`) of a
    K = ``truncation`` series, with no argument checks but n's.

    The grid goes into this thread's scratch grid; where every row's c_1 is
    zero the extrema are read from its first half period alone, which the
    second would repeat.
    """
    _check_samples(n)
    rows = live.shape[0]
    # this thread's scratch, which the next call overwrites
    spectrum, fundamental, grid = _scratch(rows, n)
    whole = _fill_grid(live, scales, dc, n, spectrum, fundamental, grid)
    values = grid if whole else grid[:, : n // 2]
    vmaxs, vmins = values.max(axis=1).tolist(), values.min(axis=1).tolist()
    if (1.0 / fc) / n <= _POLISH_SPACING or n < 2 * truncation:
        return vmaxs, vmins
    # the first occurrence on the whole period, as the second half's copy
    # of a full-wave row comes later
    indices = [values.argmax(axis=1).tolist(), values.argmin(axis=1).tolist()]
    coeffs = _local_polynomials(live, indices, n, truncation)
    for r, scale in enumerate(np.asarray(scales, dtype=float).tolist()):
        top = _newton_extremum(coeffs[r], 1.0)
        bottom = _newton_extremum(coeffs[rows + r], -1.0)
        vmaxs[r] = max(vmaxs[r], scale * (dc + top))
        vmins[r] = min(vmins[r], scale * (dc + bottom))
    return vmaxs, vmins


def _one_row(fs: FilteredSeries) -> tuple[np.ndarray, tuple[float], float]:
    # the series as a one-row block: amplitudes, scales and dc for period_grid
    return fs.amplitudes[None, :], (fs.base.scale,), 0.5 * fs.base.a0 * fs.filt.resistance


def period_samples(fs: FilteredSeries, n: int) -> np.ndarray:
    """The output at ``t_i = i / (n fc)``, i = 0..n-1: :func:`period_grid` of one row."""
    return period_grid(*_one_row(fs), n)[0]


def period_extrema(fs: FilteredSeries, n: int) -> tuple[float, float]:
    """Max and min of the output over one carrier period, from n samples.

    :func:`grid_extrema` of one row: both are Newton-polished where the grid
    is coarser than 1e-12 s, and are the grid's elsewhere.
    """
    (vmax,), (vmin,) = grid_extrema(*_one_row(fs), fs.base.fundamental_fc, n)
    return vmax, vmin


def dc_voltage(kind: RectifierKind, filt: RcFilter, amplitude: float, fc: float) -> float:
    """Time-averaged filter output ``delta * A * R * a0 / 2``.

    Refuses a result that overflows (``ValueError``).
    """
    require_finite_positive("amplitude", amplitude)
    require_finite_positive("fc", fc)
    delta = _amplification(filt.resistance, fc * filt.tau)
    return _finite(delta * amplitude * filt.resistance * fourier_coefficient(kind, 0) / 2.0)


def _finite(value: float) -> float:
    """``value``, refused (``ValueError``) where it overflowed."""
    if not math.isfinite(value):
        raise ValueError("result is not finite; an input is out of range")
    return value


@lru_cache(maxsize=16)
def _magnitude_sum(kind: RectifierKind, truncation: int) -> float:
    """``a0/2 + sum_k |a_k|``, k = 1..K, as a Python float."""
    return 0.5 * fourier_coefficient(kind, 0) + float(np.abs(coefficients(kind, truncation)).sum())


def _check_output_bound(
    kind: RectifierKind, scale: float, resistance: float, truncation: int
) -> None:
    """Refuse (``ValueError``) an output that may overflow, before any numpy
    work: every output value lies within ``scale R (a0/2 + sum_k |a_k|)`` of
    zero, and where that bound is finite no numpy step overflows.  Checked
    in Python floats, so no warning is raised and no ``np.errstate`` entered.
    """
    _finite(scale * resistance * _magnitude_sum(kind, truncation))


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
    Refuses an output that may overflow (``ValueError``): at R = 1e300,
    C = 0 it would read inf.
    """
    require_finite_positive("amplitude", amplitude, allow_zero=True)
    require_finite_positive("fc", fc)
    x = fc * filt.tau
    scale = _amplification(filt.resistance, x) * amplitude
    _check_output_bound(kind, scale, filt.resistance, truncation)
    return float(aligned_peaks(kind, (scale,), filt.resistance, _attenuation([x], truncation))[0])


def _attenuation(xs, truncation: int) -> np.ndarray:
    """``sqrt(1 + (2 pi k x)^2)`` for k = 1..K, one row per ``x = fc tau``."""
    wt = _omega_tau(xs, _harmonic_omegas(truncation))
    return np.sqrt(1.0 + wt * wt)


def aligned_peaks(kind: RectifierKind, scales, resistance: float, atten: np.ndarray) -> np.ndarray:
    """:func:`ripple_peak` for each row of an :func:`_attenuation` matrix.

    ``scale R (a0/2 + sum_k a_k / atten_k)``, where ``scale`` is the row's
    input peak ``delta A``.  The matrix keeps all K columns, the zero odd
    harmonics' too, so that each row sums the same terms in the same order
    as the per-point :func:`ripple_peak`.
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
    require_finite_positive("resistance", resistance)
    require_finite_positive("amplitude", amplitude, allow_zero=True)
    high = math.sqrt(resistance) * amplitude * resistance * fourier_coefficient(kind, 0) / 2.0
    return 0.0, high
