"""Brute-force numerical checks for the closed-form model.

Everything here avoids the analytic coefficient formulas on purpose: the
Fourier coefficients are recomputed by composite Gauss-Legendre quadrature
with panels aligned to the kinks of the rectified waveform, the filter
output comes from the time-domain steady state of the RC filter's
differential equation, and waveform statistics come from dense uniform
sampling.  Panel and sample reductions use a fixed order, so results are
deterministic.

The coefficient quadrature takes an integer array of harmonics in one call:
one node set, its panels sized by the largest harmonic, serves all of them,
and ``exp(1j k theta)`` comes by angle addition from ~2 sqrt(K) evaluated
exponentials, which rounds to a few ulp.  Their phases are reduced in whole
turns of the carrier with integer arithmetic, so the rounding does not grow
with k.

The two-tone quadrature likewise takes an array of tone spacings: one node
set and one carrier serve every spacing that shares its breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .rectifier import RectifierKind, rectify

__all__ = [
    "SampleStats",
    "quad_projection",
    "quad_coefficient",
    "quad_b_coefficient",
    "quad_multisine_a0",
    "steady_state",
    "sample_stats",
]

_GAUSS_ORDER = 32
# panels per block of the coefficient quadrature: its working arrays hold
# block x harmonics entries, whatever the node count
_BLOCK_PANELS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ARGMAX_RESOLUTION = 1e-12  # seconds


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _node_set(edges, panels) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the segments between
    consecutive ``edges``, segment i cut into ``panels[i]`` equal panels.

    Nodes come panel by panel in increasing order.  Panel midpoints are odd
    multiples of the half width about the segment's centre, so mirrored
    segments get mirrored nodes bit for bit.
    """
    x, w = _gauss_nodes(_GAUSS_ORDER)
    nodes, weights = [], []
    for lo, hi, n in zip(edges[:-1], edges[1:], panels):
        half = 0.5 * (hi - lo) / n
        mids = 0.5 * (lo + hi) + np.arange(1 - n, n, 2) * half
        nodes.append((mids[:, None] + half * x).ravel())
        weights.append(np.tile(half * w, n))
    return np.concatenate(nodes), np.concatenate(weights)


def _segment_panels(length: float, k: int, fc: float, refine: int) -> int:
    # enough panels that each holds at most ~half an oscillation of the
    # fastest factor cos(2 pi k fc t)
    oscillations = (k + 1) * fc * length
    return refine * max(4, math.ceil(2.0 * oscillations))


def _require_quadrature_range(fc: float, top_harmonic: int) -> None:
    # past these the integrand's angle or the period overflows to inf, the
    # integrand turns nan and the panel count cannot be formed
    if not (math.isfinite(2.0 * math.pi * (top_harmonic + 1) * fc) and math.isfinite(1.0 / fc)):
        raise ValueError(
            f"fc = {fc!r} is out of the quadrature's range: "
            f"2*pi*{top_harmonic + 1}*fc or 1/fc is not finite"
        )


def _harmonic_indices(k) -> np.ndarray:
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise ValueError(f"harmonic indices must be integers, got dtype {ks.dtype}")
    if ks.size == 0:
        raise ValueError("need at least one harmonic index")
    if ks.min() < 0:
        raise ValueError(f"harmonic index must be >= 0, got {ks.min()}")
    return ks


def _unit(angle: np.ndarray) -> np.ndarray:
    """``exp(1j * angle)``, filled by one cos and one sin."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def quad_projection(kind: RectifierKind, k, fc: float = 1.0, refine: int = 1):
    """``a_k + 1j b_k = 2 fc * integral of g(cos(theta)) exp(1j k theta) dt``
    over one period, ``theta = 2 pi fc t``, by quadrature; b_0 is 0 by definition.

    ``k`` is one harmonic index (returns a complex) or an integer array of
    them (returns an array of its shape).  One node set serves every k, its
    panels sized by the largest.  With ``B = isqrt(max k) + 1`` each
    ``k = B q + r`` (``0 <= r < B``) takes
    ``exp(1j k theta) = exp(1j B q theta) exp(1j r theta)``, so only ~2 sqrt(K)
    exponentials are evaluated by cos and sin, each split once more into a
    panel factor and a node factor that the segment's panels share.  Their
    phases are formed in turns of the carrier from integers, where a panel
    midpoint sits at an exact fraction of the period, so they stay within a
    few ulp for every k; the products add a few ulp more.  Nodes run in fixed
    blocks of panels, so memory does not grow with k times the node count.
    A scalar and an array call agree to roundoff, not bit for bit; calls with
    the same largest k agree bit for bit, so one over ``0..max k`` serves all.

    Independent of ``fc`` up to roundoff (the substitution z = 2 pi fc t
    removes it); passing different carriers is a consistency check, not a
    model change.  ``refine`` multiplies the automatic panel count.
    """
    ks = _harmonic_indices(k)
    if fc <= 0:
        raise ValueError(f"fc must be > 0, got {fc}")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    top = int(ks.max())
    _require_quadrature_range(fc, top)
    # kinks of g(cos(2 pi fc t)) sit at +-1/(4 fc)
    quarter = 1.0 / (4.0 * fc)
    half = 1.0 / (2.0 * fc)
    edges = (-half, -quarter, quarter, half)
    panels = [_segment_panels(hi - lo, top, fc, refine) for lo, hi in zip(edges[:-1], edges[1:])]
    t, weights = _node_set(edges, panels)
    values = rectify(kind, np.cos((2.0 * math.pi * fc) * t)) * weights
    del t, weights  # the blocks read only the weighted values
    base = math.isqrt(top) + 1
    count = top // base + 1
    # the harmonics whose exponentials are evaluated: B q for q < count, then r < B
    rows = np.concatenate([base * np.arange(count), np.arange(base)])
    x, _ = _gauss_nodes(_GAUSS_ORDER)
    total = np.zeros((count, base), dtype=complex)
    products = np.empty((_BLOCK_PANELS, 2 * count * base))
    start = 0
    # segment ends in quarter turns of the carrier.  A segment of n panels
    # spanning s quarter turns has its panel midpoints at odd multiples of
    # 1/d turns from its start, d = 8 n / s: in units of 1/d turns they are
    # the integers d lo / 4 + 1, d lo / 4 + 3, ...
    for n, lo, hi in zip(panels, (-2, -1, 1), (-1, 1, 2)):
        d = 8 * n // (hi - lo)
        node = _unit((2.0 * math.pi / d) * np.multiply.outer(x, rows))
        # exp(1j k x 2 pi / d) for every k = B q + r, viewed as real (order, 2 K)
        # so that each block takes one real matrix product
        node_factor = (node[:, :count, None] * node[:, None, count:]).reshape(_GAUSS_ORDER, -1)
        node_factor = node_factor.view(float)
        mids = d * lo // 4 + np.arange(1, 2 * n, 2)
        for first in range(0, n, _BLOCK_PANELS):
            block = mids[first:first + _BLOCK_PANELS]
            stop = start + block.size * _GAUSS_ORDER
            inner = np.matmul(
                values[start:stop].reshape(block.size, _GAUSS_ORDER),
                node_factor,
                out=products[:block.size],
            ).view(complex).reshape(block.size, count, base)
            panel = _unit((2.0 * math.pi / d) * (np.multiply.outer(block, rows) % d))
            inner *= panel[:, :count, None]
            inner *= panel[:, None, count:]
            total += inner.sum(axis=0)
            start = stop
    projections = (2.0 * fc) * total.ravel()[ks]
    projections = np.where(ks == 0, projections.real, projections)
    return complex(projections) if projections.ndim == 0 else projections


def _result(values):
    return float(values) if np.ndim(values) == 0 else values


def quad_coefficient(kind: RectifierKind, k, fc: float = 1.0, refine: int = 1):
    """Cosine coefficient(s) a_k by quadrature, the real part of :func:`quad_projection`."""
    return _result(np.real(quad_projection(kind, k, fc, refine)))


def quad_b_coefficient(kind: RectifierKind, k, fc: float = 1.0, refine: int = 1):
    """Sine coefficient(s) b_k, the imaginary part of :func:`quad_projection`; 0 by symmetry."""
    return _result(np.imag(quad_projection(kind, k, fc, refine)))


def quad_multisine_a0(kind: RectifierKind, fc: float, df, refine: int = 1):
    """Two-tone DC coefficient by quadrature, per-tone normalized.

    Integrates the rectified two-tone waveform
    ``g(2 cos(pi df t) cos(2 pi fc t))`` over the central carrier period
    ``[-1/(2 fc), 1/(2 fc)]`` and scales by ``fc`` (= ``2 fc / N`` with
    N = 2 tones), the same construction that produces the closed form in
    :func:`rectenna.rectifier.multisine_a0`.  Matches that closed form for
    ``df <= fc``, where rectifier conduction stays confined to the carrier
    half-cycles.

    ``df`` is one spacing (returns a float) or an array (returns its shape).
    One node set and carrier serve each distinct breakpoint set (df > fc adds
    the envelope zeros +-1/(2 df)), so each entry is bitwise its scalar call.
    """
    spacings = np.asarray(df)
    values = spacings.ravel().tolist()
    if fc <= 0:
        raise ValueError(f"fc must be > 0, got {fc}")
    for value in values:
        if value < 0:
            raise ValueError(f"df must be >= 0, got {value}")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    _require_quadrature_range(fc, 0)
    for value in values:
        if not math.isfinite(math.pi * value):
            raise ValueError(
                f"df = {value!r} is out of the quadrature's range: pi*df is not finite"
            )
    quarter = 1.0 / (4.0 * fc)
    half = 1.0 / (2.0 * fc)
    node_sets = {}
    a0 = []
    for value in values:
        breakpoints = {-half, -quarter, quarter, half}
        if value > fc:
            # envelope zeros enter the carrier period
            breakpoints.update({-0.5 / value, 0.5 / value})
        edges = tuple(sorted(breakpoints))
        if edges not in node_sets:
            t, weights = _node_set(edges, [refine * 16] * (len(edges) - 1))
            node_sets[edges] = t, weights, np.cos((2.0 * math.pi * fc) * t)
        t, weights, carrier = node_sets[edges]
        integrand = rectify(kind, 2.0 * np.cos((math.pi * value) * t) * carrier)
        a0.append(fc * float(weights @ integrand))
    return _result(np.reshape(a0, spacings.shape))


def steady_state(kind: RectifierKind, resistance: float, scale: float, fc: float, tau: float, t):
    """Periodic solution of ``tau v' + v = R S g(cos(2 pi fc t))`` at time(s) t.

    The RC filter's output for a rectified carrier of peak S, found in the
    time domain with no series.  On a conduction interval the solution is
    the particular sinusoid ``v_p = R S (cos + w sin)(2 pi psi) / (1 + w^2)``
    plus a decaying exponential, where ``w = 2 pi fc tau``, ``a = 1 / (fc
    tau)`` is the carrier period in time constants and ``psi`` is the phase
    in periods, taken in ``[-1/4, 1/4)`` on conduction.  Periodicity fixes the
    exponential as ``E(s) = P exp(-s a)``, ``s`` in ``[0, 1/2]``, with
    ``P = R S w / ((1 + w^2)(1 - exp(-a/2)))``:

    - full wave (period 1/2): ``v = v_p(psi) + 2 E(psi + 1/4)``;
    - half wave: ``v_p(psi) + E(psi + 1/4)`` on conduction, and the decay
      ``E(psi - 1/4)`` for ``psi`` in ``[1/4, 3/4)``.

    ``1 - exp(-a/2)`` is taken by ``expm1`` and every exponent is <= 0, so
    no branch overflows.  tau = 0 gives ``R S g(cos(2 pi fc t))``.
    """
    for name, value in (("resistance", resistance), ("fc", fc)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    for name, value in (("scale", scale), ("tau", tau), ("fc*tau", fc * tau)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    peak = resistance * scale
    phase = np.multiply(fc, t, dtype=float)
    if not np.isfinite(phase).all():
        raise ValueError("t must hold finite times, with fc * t finite")
    phase = np.remainder(phase, 1.0)
    a = 1.0 / (fc * tau) if fc * tau else math.inf
    if a == math.inf:
        return peak * rectify(kind, np.cos(2.0 * math.pi * phase))
    # w = 2 pi / a.  The weights are written so that neither a tiny nor a
    # huge a overflows them: w / (1 + w^2) = 1 / (w + 1/w), and P divides
    # by (w + 1/w) q = 2 pi q / a + q a / (2 pi), with q = 1 - exp(-a/2)
    w = 2.0 * math.pi / a
    q = -math.expm1(-0.5 * a)
    cos_weight = peak / (1.0 + w * w)
    sin_weight = peak / (w + a / (2.0 * math.pi))
    decay_weight = peak / (2.0 * math.pi * q / a + q * a / (2.0 * math.pi))

    def sinusoid(psi):
        angle = 2.0 * math.pi * psi
        return cos_weight * np.cos(angle) + sin_weight * np.sin(angle)

    def decay(s):
        return decay_weight * np.exp(-a * s)

    if kind is RectifierKind.FULL_WAVE:
        psi = np.remainder(phase + 0.25, 0.5) - 0.25
        return sinusoid(psi) + 2.0 * decay(psi + 0.25)
    psi = np.remainder(phase + 0.25, 1.0) - 0.25
    conducting = psi < 0.25
    return np.where(conducting, sinusoid(psi), 0.0) + decay(
        np.where(conducting, psi + 0.25, psi - 0.25)
    )


@dataclass(frozen=True)
class SampleStats:
    """Summary of a sampled waveform over one period."""

    mean: float
    max: float
    min: float
    peak_to_peak: float
    argmax_t: float


def _golden_maximize(f: Callable, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # far from t = 0 adjacent floats can sit more than tol apart (t > ~4e3 s
    # for 1e-12 s); stop at a few float spacings there instead of looping
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc_, fd = float(f(c)), float(f(d))
    while b - a > tol:
        if fc_ >= fd:
            b, d, fd = d, c, fc_
            c = b - _GOLDEN * (b - a)
            fc_ = float(f(c))
        else:
            a, c, fc_ = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = float(f(d))
    x = 0.5 * (a + b)
    return x, float(f(x))


def _sharpen_max(f: Callable, t: float, value: float, spacing: float) -> tuple[float, float]:
    """Sharpen a sampled maximum ``value = f(t)`` on a grid of ``spacing``.

    Golden-section search over ``[t - spacing, t + spacing]`` down to 1e-12 s,
    skipped when the grid is already that fine; returns the better
    ``(value, t)``.
    """
    if spacing > _ARGMAX_RESOLUTION:
        x, fx = _golden_maximize(f, t - spacing, t + spacing, _ARGMAX_RESOLUTION)
        if fx > value:
            return fx, x
    return value, t


def sample_stats(f: Callable, period: float, n: int, refine_argmax: bool = True) -> SampleStats:
    """Mean/extrema of ``f`` on ``n`` uniform samples over ``[0, period)``.

    The discrete argmax is sharpened by a golden-section search in its
    one-sample neighbourhood down to 1e-12 s (skipped when the grid is
    already finer than that).  ``f`` may be vectorized or scalar-only.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    ts = np.arange(n) * (period / n)
    values = np.asarray(f(ts), dtype=float)
    if values.shape != ts.shape:
        values = np.array([float(f(t)) for t in ts])
    mean = float(values.mean())
    idx = int(np.argmax(values))
    vmax = float(values[idx])
    vmin = float(values.min())
    argmax_t = float(ts[idx])
    if refine_argmax:
        vmax, argmax_t = _sharpen_max(f, argmax_t, vmax, period / n)
    return SampleStats(
        mean=mean,
        max=vmax,
        min=vmin,
        peak_to_peak=vmax - vmin,
        argmax_t=argmax_t,
    )
