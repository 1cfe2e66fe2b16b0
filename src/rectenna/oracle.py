"""Brute-force numerical checks for the closed-form model.

Everything here avoids the analytic coefficient formulas on purpose: the
Fourier coefficients are recomputed by composite Gauss-Legendre quadrature
with panels aligned to the kinks of the rectified waveform, the filter
output comes from the time-domain steady state of the RC filter's
differential equation, and waveform statistics come from dense uniform
sampling.  Panel and sample reductions use a fixed order, so results are
deterministic.
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
    "quad_coefficient",
    "quad_b_coefficient",
    "quad_multisine_a0",
    "steady_state",
    "sample_stats",
]

_GAUSS_ORDER = 32
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ARGMAX_RESOLUTION = 1e-12  # seconds


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _integrate(f: Callable, a: float, b: float, panels: int) -> float:
    """Composite Gauss-Legendre integral of a vectorizable f over [a, b]."""
    nodes, weights = _gauss_nodes(_GAUSS_ORDER)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    # (panels, order) grid evaluated in one call, reduced in fixed order
    points = mids[:, None] + halves[:, None] * nodes[None, :]
    values = f(points)
    return float(np.sum(halves * (values @ weights)))


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


def _quad_projection(kind: RectifierKind, k: int, fc: float, refine: int, use_sine: bool) -> float:
    if k < 0:
        raise ValueError(f"harmonic index must be >= 0, got {k}")
    if fc <= 0:
        raise ValueError(f"fc must be > 0, got {fc}")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    _require_quadrature_range(fc, k)
    w = 2.0 * math.pi * fc
    trig = np.sin if use_sine else np.cos

    def integrand(t):
        return rectify(kind, np.cos(w * t)) * trig((w * k) * t)

    # kinks of g(cos(2 pi fc t)) sit at +-1/(4 fc)
    quarter = 1.0 / (4.0 * fc)
    half = 1.0 / (2.0 * fc)
    total = 0.0
    for lo, hi in ((-half, -quarter), (-quarter, quarter), (quarter, half)):
        total += _integrate(integrand, lo, hi, _segment_panels(hi - lo, k, fc, refine))
    return 2.0 * fc * total


def quad_coefficient(kind: RectifierKind, k: int, fc: float = 1.0, refine: int = 1) -> float:
    """Cosine coefficient by quadrature:
    ``2 fc * integral of g(cos(2 pi fc t)) cos(2 pi k fc t) over one period``.

    Independent of ``fc`` up to roundoff (the substitution z = 2 pi fc t
    removes it); passing different carriers is a consistency check, not a
    model change.  ``refine`` multiplies the automatic panel count.
    """
    return _quad_projection(kind, k, fc, refine, use_sine=False)


def quad_b_coefficient(kind: RectifierKind, k: int, fc: float = 1.0, refine: int = 1) -> float:
    """Sine coefficient by quadrature; vanishes for all k by even symmetry."""
    if k == 0:
        return 0.0
    return _quad_projection(kind, k, fc, refine, use_sine=True)


def quad_multisine_a0(kind: RectifierKind, fc: float, df: float, refine: int = 1) -> float:
    """Two-tone DC coefficient by quadrature, per-tone normalized.

    Integrates the rectified two-tone waveform
    ``g(2 cos(pi df t) cos(2 pi fc t))`` over the central carrier period
    ``[-1/(2 fc), 1/(2 fc)]`` and scales by ``fc`` (= ``2 fc / N`` with
    N = 2 tones), the same construction that produces the closed form in
    :func:`rectenna.rectifier.multisine_a0`.  Matches that closed form for
    ``df <= fc``, where rectifier conduction stays confined to the carrier
    half-cycles.
    """
    if fc <= 0:
        raise ValueError(f"fc must be > 0, got {fc}")
    if df < 0:
        raise ValueError(f"df must be >= 0, got {df}")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    _require_quadrature_range(fc, 0)
    if not math.isfinite(math.pi * df):
        raise ValueError(f"df = {df!r} is out of the quadrature's range: pi*df is not finite")
    w = 2.0 * math.pi * fc

    def integrand(t):
        return rectify(kind, 2.0 * np.cos((math.pi * df) * t) * np.cos(w * t))

    quarter = 1.0 / (4.0 * fc)
    half = 1.0 / (2.0 * fc)
    breakpoints = {-half, -quarter, quarter, half}
    if df > fc:
        # envelope zeros enter the carrier period
        breakpoints.update({-0.5 / df, 0.5 / df})
    edges = sorted(breakpoints)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += _integrate(integrand, lo, hi, refine * 16)
    return fc * total


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
    phase = np.remainder(np.multiply(fc, t, dtype=float), 1.0)
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
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
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
