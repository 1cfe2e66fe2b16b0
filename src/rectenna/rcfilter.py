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
subtracted on the other, a row at a time.  One kernel does all of this
(:class:`_GridKernel`): built once for a (K, n, rows) shape, it owns the
live amplitudes, the spectrum, the grid, the c_1 half row and every view
a pass reads, and each pass writes into them with ``out=``.  The design
layer's sweep and its one-row ripple metric run blocks of up to eight
cut-offs in this thread's kernel for the block's shape
(:func:`_prepared_kernel`, the last few shapes kept), which also forms
their transfers at the live k, from a live ``2 pi k`` row and a live
coefficient row cached per K and per (kind, K), into a denominator whose
real part is preset to 1; they skip the public functions' argument checks
and build no series object.  So a design solve's evaluations after the
first allocate no buffer of the grid's size.  The aligned-phase peaks
(:func:`ripple_peak`) sum the live k too.  :func:`period_samples` and
:func:`period_extrema` are the one-row case.  Where that grid is coarser
than 1e-12 s, :func:`grid_extrema` Newton-polishes both its extrema on the
exact trig polynomial, with one stacked product for the Taylor
coefficients of every row's argmax and argmin; finer grids keep their grid
extrema.  Where c_1 is zero (the full wave) only the first half period is
written and read, so a full-wave pass never reads a second half that an
earlier pass on the same kernel left behind.
:func:`eval_filtered` serves arbitrary times from a Taylor table
(:func:`taylor_table`): one period grid whose D + 1 rows are the series'
first D + 1 Taylor coefficients at every grid phase, built once per series.
A time is then a table lookup at the nearest grid phase and a degree-D
polynomial in the offset from it.  The table and the polish read one
builder of Taylor factors ``(j k h)^p / p!`` at the live k
(:func:`_live_factors`), cached per (K, n, reach).
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
    "ripple_peak",
    "max_ripple",
    "dc_limits",
]

# grids coarser than this (seconds per sample) get Newton-polished extrema;
# in seconds, not fc * n, since which grids are polished moves printed digits
_POLISH_SPACING = 1e-12
# Taylor tail a local polynomial or table drops, relative to sum_k |c_k|
_TAYLOR_TAIL = 1e-17
# grid samples per block of Taylor table rows built by one inverse FFT: a
# K = 256 table's 18 rows of 1024 take two blocks of nine (three of six with
# 1 << 13), and a K = 1024 table peaks at ~1.4x its own 590 KB while built
# (its cached factors apart), against ~1.7x with 1 << 15
_TABLE_BLOCK_CELLS = 1 << 14
# Newton on the local polynomial: step cap, and the step (in grid steps)
# below which the next one would move the value by less than roundoff
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-9
# prepared period-grid kernels, per thread so concurrent calls never share
# one; reused so a solve's evaluations and a sweep's blocks allocate nothing
_KERNELS = threading.local()
_KERNEL_SHAPES = 4


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
    """``2 pi k`` for k = 1..K, read-only: the all-K row of
    :attr:`FilteredSeries.transfers`, for every carrier and tau."""
    omegas = 2.0 * np.pi * np.arange(1, truncation + 1, dtype=float)
    omegas.setflags(write=False)
    return omegas


def _live(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The live columns of a last axis that runs over k = 1..K: k = 1, then
    the even k, in a new array or in ``out``.  The rectifier's odd
    harmonics k >= 3 are exact zeros, so the engine reads only these
    1 + K // 2 columns."""
    return np.concatenate((values[..., :1], values[..., 1::2]), axis=-1, out=out)


@lru_cache(maxsize=8)
def _live_harmonics(truncation: int) -> np.ndarray:
    """The live k (1, 2, 4, ..., up to K) as integers, read-only."""
    harmonics = _live(np.arange(1, truncation + 1))
    harmonics.setflags(write=False)
    return harmonics


@lru_cache(maxsize=8)
def _live_omegas(truncation: int) -> np.ndarray:
    """``2 pi k`` at the live k, read-only: :func:`_harmonic_omegas`' entries."""
    omegas = 2.0 * np.pi * _live_harmonics(truncation)
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


class _GridKernel:
    """The period grid of ``rows`` live rows (:func:`_live`) of a K =
    ``truncation`` series, written into a ``(rows, n)`` array ``grid``, n
    even: its work buffers and every view a pass reads, built once.

    ``live`` holds the rows' live amplitudes: :meth:`load_filter` forms them
    from ``x = fc tau``, or a caller writes them.  :meth:`fill` then writes
    their grid and :meth:`extrema` reads its extrema.  Each pass runs its
    ufuncs with ``out=`` into these buffers, so a cached kernel
    (:func:`_prepared_kernel`) allocates nothing on reuse but a few
    per-row temporaries.
    """

    def __init__(self, truncation: int, grid: np.ndarray):
        rows, n = grid.shape
        width, points = 1 + truncation // 2, n // 2
        self.truncation, self.n, self.grid, self.half = truncation, n, grid, grid[:, :points]
        self.live = np.empty((rows, width), dtype=complex)
        self.c1 = self.live[:, 0]
        # the (rows, n/4 + 1) one-sided spectrum of the half grid, and one
        # half-period row that each grid row's c_1 term passes through
        self.spectrum = np.empty((rows, n // 4 + 1), dtype=complex)
        self.fundamental = np.empty(points)
        # irfft (norm="forward") sums bin 0, the Nyquist bin and 2 Re of the
        # rest; the bins above the last harmonic's, the Nyquist bin among
        # them, hold 0
        top = min(width - 1, points // 2)
        self.bin0, self.used = self.spectrum[:, 0], self.spectrum[:, : top + 1]
        even_nyquist = points % 2 == 0 and top == points // 2
        self.nyquist = self.spectrum[:, top] if even_nyquist else None
        self.folds = _fold_pairs(self.spectrum, self.live[:, 1:], points)

    @cached_property
    def denominator(self) -> np.ndarray:
        """``1 + j wt`` for :meth:`load_filter`, its real part set once: wt
        goes into the imaginary view, so where wt overflows H is 0, not the
        nan of ``1j * inf``."""
        return np.ones(self.live.shape, dtype=complex)

    def load_filter(self, kind: RectifierKind, resistance: float, xs) -> None:
        """``live`` = the live ``a_k R / (1 + j 2 pi k x)``, one row per
        ``x = fc tau`` in xs: the operations of :func:`_omega_tau` and
        :func:`_transfers`, in their order."""
        denominator = self.denominator
        np.multiply.outer(xs, _live_omegas(self.truncation), out=denominator.imag)
        np.divide(resistance, denominator, out=self.live)
        np.multiply(_live_coefficients(kind, self.truncation), self.live, out=self.live)

    def fill(self, scales: np.ndarray, dc: float, grid: np.ndarray | None = None) -> bool:
        """Write the period grid of ``live``, scaled by ``scales`` and with
        ``dc`` added, into the kernel's grid or into ``grid``, an array of
        its shape.

        Returns False, and leaves the grid's second half period unwritten,
        where every row's c_1 is zero: it would repeat the first then.
        """
        points = self.n // 2
        grid, half = (self.grid, self.half) if grid is None else (grid, grid[:, :points])
        # harmonic 2j is frequency j on the half grid: fold them into the
        # spectrum (zeroed first), then fold the row scale and dc in; each
        # step runs in place on a view, with no copy back
        self.spectrum.fill(0.0)
        for bins, source, mirrored in self.folds:
            np.add(bins, source.conj() if mirrored else source, out=bins)
        np.add(self.bin0, dc, out=self.bin0)
        np.multiply(self.used, (0.5 * scales)[:, None], out=self.used)
        np.multiply(self.bin0, 2.0, out=self.bin0)
        if self.nyquist is not None:
            np.multiply(self.nyquist, 2.0, out=self.nyquist)
        np.fft.irfft(self.spectrum, points, axis=1, norm="forward", out=half)
        c1 = (self.c1 * scales).tolist()
        if not any(c1):
            return False
        # L_i = Re(c_1 w^i) for i < n/2, then E_i -+ L_i on both half periods,
        # a row at a time: each half row is contiguous, and L stays in cache
        cos, sin = _half_period_roots(self.n)
        fundamental = self.fundamental
        for c, row in zip(c1, grid):
            low, high = row[:points], row[points:]
            np.multiply(sin, c.imag, out=high)
            np.multiply(cos, c.real, out=fundamental)
            np.subtract(fundamental, high, out=fundamental)
            np.subtract(low, fundamental, out=high)
            np.add(low, fundamental, out=low)
        return True

    def extrema(self, scales, dc: float, fc: float) -> tuple[list[float], list[float]]:
        """:func:`grid_extrema` of ``live``, with no argument checks.

        Where every row's c_1 is zero the extrema are read from the grid's
        first half period alone, which the second would repeat: whatever an
        earlier pass left in the second half is never read.
        """
        scales = np.asarray(scales, dtype=float)
        values = self.grid if self.fill(scales, dc) else self.half
        vmaxs = np.maximum.reduce(values, axis=1).tolist()
        vmins = np.minimum.reduce(values, axis=1).tolist()
        n, truncation = self.n, self.truncation
        if (1.0 / fc) / n <= _POLISH_SPACING or n < 2 * truncation:
            return vmaxs, vmins
        # the first occurrence on the whole period, as the second half's copy
        # of a full-wave row comes later
        indices = [values.argmax(axis=1).tolist(), values.argmin(axis=1).tolist()]
        coeffs = _local_polynomials(self.live, indices, n, truncation)
        rows = len(vmaxs)
        for r, scale in enumerate(scales.tolist()):
            top = _newton_extremum(coeffs[r], 1.0)
            bottom = _newton_extremum(coeffs[rows + r], -1.0)
            vmaxs[r] = max(vmaxs[r], scale * (dc + top))
            vmins[r] = min(vmins[r], scale * (dc + bottom))
        return vmaxs, vmins


def _fold_pairs(spectrum: np.ndarray, placed: np.ndarray, points: int) -> list[tuple]:
    """``(bins, source, mirrored)`` views that fold ``placed[:, f - 1]``, the
    amplitude of frequency f = 1..F on a ``points``-sample grid, into the
    one-sided ``spectrum``: adding each source (conjugated where mirrored)
    into its bins, in order, gives every bin its frequencies' sum.

    Frequency f aliases exactly into bin ``b = f mod points``; a bin above
    ``points / 2`` is the conjugate of bin ``points - b``.  Each bin adds its
    frequencies in increasing order, as ``np.bincount`` would.
    """
    pairs = []
    top, half = placed.shape[1], points // 2
    for start in range(0, top + 1, points):
        lo, hi = max(start, 1), min(start + points, top + 1)
        mid = min(hi, start + half + 1)
        pairs.append((spectrum[:, lo - start : mid - start], placed[:, lo - 1 : mid - 1], False))
        if mid < hi:
            bins = spectrum[:, start + points - hi + 1 : start + points - mid + 1]
            pairs.append((bins, placed[:, mid - 1 : hi - 1][:, ::-1], True))
    return pairs


def _prepared_kernel(truncation: int, n: int, rows: int) -> _GridKernel:
    """This thread's :class:`_GridKernel` for the shape, built on first use.

    Kept for the last few shapes used, oldest dropped first.
    """
    _check_samples(n)
    kernels = _KERNELS.__dict__.setdefault("kernels", {})
    key = (truncation, n, rows)
    kernel = kernels.get(key)
    if kernel is None:
        if len(kernels) >= _KERNEL_SHAPES:
            del kernels[next(iter(kernels))]
        kernel = kernels[key] = _GridKernel(truncation, np.empty((rows, n)))
    return kernel


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
    (:func:`_fold_pairs`; the row scale and dc folded in too), and the
    output is ``E_i + L_i`` and ``E_i - L_i`` on the two half periods.
    Harmonics alias exactly on the grid, so every even n >= 2 gives
    :func:`eval_filtered`'s values up to roundoff, and each row is bitwise
    what it would be alone.  The result is a new array, from a kernel of
    its own: the thread's prepared kernels are left as they are.
    """
    _check_grid(amplitudes, scales, dc, n)
    kernel = _GridKernel(amplitudes.shape[1], np.empty((amplitudes.shape[0], n)))
    _live(amplitudes, out=kernel.live)
    if not kernel.fill(np.asarray(scales, dtype=float), dc):
        kernel.grid[:, n // 2 :] = kernel.half
    return kernel.grid


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
    K (:func:`_live_factors` at reach 1/2, which the polish of
    :func:`grid_extrema` reads at reach 1), so a block of rows takes one
    product with the live amplitudes and one inverse FFT.  The blocks are
    of equal size where the rows allow, and share one kernel that writes
    into the table's rows, so a K = 1024 table peaks at ~1.4x its own size
    while built.
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
    n = 1 << (4 * truncation - 1).bit_length()
    factors = _live_factors(truncation, n, 0.5)
    live = _live(amplitudes)
    degrees = factors.shape[0]
    table = np.empty((degrees, n))
    # as few blocks of at most _TABLE_BLOCK_CELLS as fit, of equal size
    # where the rows allow, so that one kernel serves every full block
    count = -(-degrees // max(1, _TABLE_BLOCK_CELLS // n))
    block = -(-degrees // count)
    ones = np.ones(block)
    kernel = None
    for start in range(0, degrees, block):
        rows = table[start : start + block]
        m = rows.shape[0]
        if kernel is None or kernel.live.shape[0] != m:
            # a shorter last block takes a kernel of its own, built after
            # the full blocks' one is dropped, so the two never coexist
            kernel = None
            kernel = _GridKernel(truncation, rows)
        np.multiply(live, factors[start : start + m], out=kernel.live)
        if not kernel.fill(ones[:m], 0.0, rows):
            rows[:, n // 2 :] = rows[:, : n // 2]
    table.setflags(write=False)
    return table


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
def _live_factors(truncation: int, n: int, reach: float) -> np.ndarray:
    """The ``(D + 1, 1 + K/2)`` Taylor factors ``(j k h)^p / p!`` at the live
    k (:func:`_live`), ``h = 2 pi / n``, read-only.  D is :func:`_taylor_degree`
    for offsets ``|u| <= reach`` grid steps: 1/2 for :func:`taylor_table`,
    1 for :func:`_local_polynomials`.

    A running product gives the real ``(k h)^p / p!`` a row at a time, and
    multiplying it by ``j^p`` is exact.
    """
    h = 2.0 * np.pi / n
    kh = h * _live_harmonics(truncation)
    magnitude = np.ones(kh.shape[0])
    factors = np.empty((_taylor_degree(reach * truncation * h) + 1, kh.shape[0]), dtype=complex)
    for p, row in enumerate(factors):
        if p:
            magnitude *= kh
            magnitude /= p
        np.multiply((1.0, 1j, -1.0, -1j)[p % 4], magnitude, out=row)
    factors.setflags(write=False)
    return factors


def _local_polynomials(live: np.ndarray, indices: list[list[int]], n: int, truncation: int):
    """Coefficients ``r_p`` of ``Re sum_k c_k exp(j k (theta_i + u h)) = sum_p r_p u^p``
    for each lane: row r of the live amplitudes (:func:`_live`) at grid
    point ``i = indices[s][r]``, for each set s of one index per row.  Lane
    ``s * rows + r`` of the result.

    ``theta_i = i h`` and ``h = 2 pi / n``; the expansion holds to 1e-17 of
    ``sum_k |c_k|`` for |u| <= 1.  ``r_p = Re sum_k b_k f_kp`` for the
    shifted amplitudes ``b_k = c_k w^(i k)`` and the :func:`_live_factors`
    ``f_kp`` at reach 1: the dot product of ``conj(b)`` and ``f`` viewed as
    floats.  One stacked product of each lane's row with the same matrix,
    so a lane's coefficients do not depend on the other lanes.
    """
    phases = np.multiply.outer(np.array(indices, dtype=np.intp), _live_harmonics(truncation))
    phases %= n
    shifted = _roots_of_unity(n).take(phases)
    np.multiply(live, shifted, out=shifted)
    np.conjugate(shifted, out=shifted)
    stacked = shifted.view(float).reshape(-1, 1, 2 * live.shape[1])
    return (stacked @ _live_factors(truncation, n, 1.0).view(float).T)[:, 0].tolist()


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
    1``; :func:`_local_polynomials`, from the :func:`_live_factors` that
    :func:`taylor_table` reads too), and Newton's method runs on that
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
    kernel = _prepared_kernel(amplitudes.shape[1], n, amplitudes.shape[0])
    _live(amplitudes, out=kernel.live)
    return kernel.extrema(scales, dc, fc)


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
    return float(_aligned_peaks(kind, (scale,), filt.resistance, [x], truncation)[0])


def _aligned_peaks(kind: RectifierKind, scales, resistance: float, xs, truncation: int):
    """:func:`ripple_peak` at each ``x = fc tau``, scaled by its entry of scales.

    ``scale R (a0/2 + sum_k a_k / sqrt(1 + (2 pi k x)^2))``, where ``scale``
    is the row's input peak ``delta A``, summed over the live k
    (:func:`_live`) only: the other a_k are exact zeros.  Each row sums its
    terms in the order a one-row call would.
    """
    wt = _omega_tau(xs, _live_omegas(truncation))
    harmonics = np.sum(_live_coefficients(kind, truncation) / np.sqrt(1.0 + wt * wt), axis=1)
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
