"""Ideal diode nonlinearities and the Fourier series of the rectified carrier.

For a unit cosine input, the rectified waveform ``g(cos(2 pi fc t))`` is an
even periodic function, so its trigonometric series has cosine terms only:

    full-wave  g(x) = |x|:        a0 = 4/pi, a1 = 0,   ak = 4 cos(pi k/2) / (pi (1 - k^2))
    half-wave  g(x) = max(0, x):  a0 = 2/pi, a1 = 1/2, ak = 2 cos(pi k/2) / (pi (1 - k^2))

``cos(pi k/2)`` is resolved exactly from ``k mod 4``, so odd-k coefficients
(k != 1) are exactly zero and the sign pattern (negative exactly at k = 4n)
holds bitwise.  Because both nonlinearities are positively homogeneous,
``g(s cos) = s g(cos)`` for ``s >= 0`` and an arbitrary input peak is handled
by the series ``scale`` prefactor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RectifierKind",
    "FourierSeries",
    "rectify",
    "fourier_coefficient",
    "coefficients",
    "build_series",
    "horner_coefficients",
    "harmonic_sum",
    "eval_series",
    "multisine_a0",
    "require_finite_positive",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 256

# cos(pi k / 2) by k mod 4, exact.
_COS_HALF_PI = (1, 0, -1, 0)


def require_finite_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0 (NaN fails too).

    ``allow_zero`` admits 0 as well, for quantities whose zero is a valid
    limit (no capacitor, zero tone spacing).
    """
    if not (math.isfinite(value) and (value > 0 or (allow_zero and value == 0))):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


class RectifierKind(enum.Enum):
    FULL_WAVE = "full"
    HALF_WAVE = "half"


def rectify(kind: RectifierKind, v):
    """Apply the diode nonlinearity: ``|v|`` (full-wave) or ``max(0, v)``."""
    if kind is RectifierKind.FULL_WAVE:
        return np.abs(v)
    return np.maximum(0.0, v)


def fourier_coefficient(kind: RectifierKind, k: int) -> float:
    """Cosine coefficient ``a_k`` of the rectified unit cosine.

    All sine coefficients vanish by symmetry, so this fully determines the
    series.  k = 1 is a special case (the generic formula has a pole there).
    """
    if k < 0:
        raise ValueError(f"harmonic index must be >= 0, got {k}")
    numerator = 4.0 if kind is RectifierKind.FULL_WAVE else 2.0
    if k == 0:
        return numerator / math.pi
    if k == 1:
        return 0.0 if kind is RectifierKind.FULL_WAVE else 0.5
    cs = _COS_HALF_PI[k % 4]
    if cs == 0:
        return 0.0
    return numerator * cs / (math.pi * (1.0 - k * k))


@lru_cache(maxsize=16)
def coefficients(kind: RectifierKind, truncation: int) -> np.ndarray:
    """Cosine coefficients ``a_1 .. a_K`` as one read-only array.

    The same ``k mod 4`` rule as :func:`fourier_coefficient`, vectorized, and
    bitwise equal to it: odd k != 1 are exactly +0.0.  Built once per
    ``(kind, K)``; every caller shares the cached array.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    numerator = 4.0 if kind is RectifierKind.FULL_WAVE else 2.0
    ak = np.zeros(truncation)
    ak[0] = fourier_coefficient(kind, 1)
    even = np.arange(2, truncation + 1, 2)
    cs = np.take(_COS_HALF_PI, even % 4)
    ak[1::2] = numerator * cs / (math.pi * (1.0 - even.astype(float) ** 2))
    ak.setflags(write=False)
    return ak


@dataclass(frozen=True)
class FourierSeries:
    """Truncated cosine series of a rectified carrier.

    ``ak[i]`` is the coefficient of harmonic ``k = i + 1``; the DC term is
    ``a0 / 2``.  ``scale`` is the input peak voltage multiplying the whole
    series; ``fundamental_fc`` is the carrier frequency of harmonic k = 1.
    """

    kind: RectifierKind
    a0: float
    ak: np.ndarray
    truncation: int
    scale: float
    fundamental_fc: float

    @property
    def magnitudes(self) -> np.ndarray:
        """Per-harmonic magnitudes ``d_k = |a_k|``."""
        return np.abs(self.ak)

    @property
    def phases(self) -> np.ndarray:
        """Per-harmonic phases: 0 where ``a_k >= 0``, pi where ``a_k < 0``."""
        return np.where(self.ak < 0, np.pi, 0.0)

    @cached_property
    def horner(self) -> tuple[list, list]:
        """:func:`horner_coefficients` of ``ak``: the unit-filter amplitudes."""
        return horner_coefficients(self.ak)


def build_series(
    kind: RectifierKind,
    truncation: int = DEFAULT_TRUNCATION,
    scale: float = 1.0,
    fc: float = 1.0,
) -> FourierSeries:
    """Build the series truncated at harmonic ``truncation`` (K >= 1)."""
    return FourierSeries(
        kind=kind,
        a0=fourier_coefficient(kind, 0),
        ak=coefficients(kind, truncation),
        truncation=truncation,
        scale=scale,
        fundamental_fc=fc,
    )


def horner_coefficients(amplitudes) -> tuple[list, list]:
    """Horner coefficients for ``Re sum_k c_k z^k``, k = 1..K.

    ``amplitudes[i]`` is the complex ``c_k`` of harmonic ``k = i + 1``.  The
    sum splits by parity as ``z^2 P(z^2) + z Q(z^2)``, with P holding
    ``c_2, c_4, ...`` and Q holding ``c_1, c_3, ...``.  Returns P and Q as
    lists of ``(real, imag)`` Python floats, highest degree first, with
    trailing zero coefficients dropped: the rectifier's odd ``k >= 3`` are
    exactly zero, so Q keeps at most ``c_1``.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    polys = []
    for poly in (amps[1::2], amps[0::2]):
        nonzero = np.flatnonzero(poly)
        poly = poly[: nonzero[-1] + 1 if nonzero.size else 0][::-1]
        polys.append(list(zip(poly.real.tolist(), poly.imag.tolist())))
    return polys[0], polys[1]


def _horner(poly: list, wr, wi):
    """``poly(w)`` by Horner's rule, with explicit real operations.

    Each step is eight real operations, ``ar*wr - ai*wi + br`` then
    ``ar*wi + ai*wr + bi``.  Python floats ``wr, wi`` give Python floats.
    Arrays run each operation as one ufunc into four buffers allocated once
    per call (the accumulator pair and two scratch arrays, rotated between
    steps), so a step allocates nothing and rounds exactly as the scalar
    path does.  An empty poly gives ``0.0, 0.0`` and allocates nothing.
    """
    if np.ndim(wr) == 0 or not poly:
        ar = ai = 0.0
        for br, bi in poly:
            ar, ai = ar * wr - ai * wi + br, ar * wi + ai * wr + bi
        return ar, ai
    ar, ai = np.zeros_like(wr), np.zeros_like(wr)
    s, t = np.empty_like(wr), np.empty_like(wr)
    for br, bi in poly:
        np.multiply(ar, wr, out=s)
        np.multiply(ai, wi, out=t)
        np.subtract(s, t, out=s)
        np.add(s, br, out=s)  # s = ar*wr - ai*wi + br
        np.multiply(ar, wi, out=t)
        np.multiply(ai, wr, out=ar)
        np.add(t, ar, out=ar)
        np.add(ar, bi, out=ar)  # ar's buffer = ar*wi + ai*wr + bi
        ar, ai, s = s, ar, ai
    return ar, ai


def harmonic_sum(horner: tuple[list, list], fc: float, t):
    """``Re sum_k c_k exp(j 2 pi k fc t)`` at time(s) t, c_k as in :func:`horner_coefficients`.

    One cos/sin pair per time, then K/2 complex multiply-adds by Horner's
    rule (:func:`_horner`).  Every step is written as separate real
    operations, so a scalar t (Python floats, returning a float) and an
    array t (one ufunc per operation, into buffers reused across the steps)
    round identically, whatever t's position in the array; numpy's complex
    multiply may fuse them and would not.
    """
    w = 2.0 * np.pi * fc
    if np.ndim(t) == 0:
        theta = w * float(t)
        c, s = float(np.cos(theta)), float(np.sin(theta))
    else:
        theta = w * np.asarray(t, dtype=float)
        c, s = np.cos(theta), np.sin(theta, out=theta)  # cos reads theta first
    wr, wi = c * c - s * s, 2.0 * c * s  # z^2
    p_re, p_im = _horner(horner[0], wr, wi)
    q_re, q_im = _horner(horner[1], wr, wi)
    return (p_re * wr - p_im * wi) + (q_re * c - q_im * s)  # Re(z^2 P + z Q)


def eval_series(series: FourierSeries, t):
    """Evaluate ``scale * (a0/2 + sum_k a_k cos(2 pi k fc t))`` at time(s) t.

    The unit-filter case of :func:`rectenna.rcfilter.eval_filtered`: the same
    Horner kernel (:func:`harmonic_sum`) with real coefficients ``a_k``.
    """
    return series.scale * (0.5 * series.a0 + harmonic_sum(series.horner, series.fundamental_fc, t))


def multisine_a0(kind: RectifierKind, fc: float, df: float) -> float:
    """DC coefficient ``a0`` of the rectified two-tone multisine.

    Tones at ``fc +- df/2``; the coefficient is normalized per tone so that
    ``df -> 0`` recovers the single-tone ``a0`` (4/pi or 2/pi).  Valid for
    ``0 <= df <= fc``, where it matches
    :func:`rectenna.oracle.quad_multisine_a0`; ``df > fc`` raises
    ``ValueError``.  Beyond fc the envelope's zeros enter the carrier period,
    the conduction pattern changes and the expression no longer holds (at
    ``df = 1.9 fc`` the full wave reads 0.054 against a quadrature 0.970).
    Written in ``r = df / fc``, so no finite ``fc`` overflows it.
    """
    require_finite_positive("fc", fc)
    require_finite_positive("df", df, allow_zero=True)
    if df > fc:
        raise ValueError(f"df must be <= fc ({df} > {fc})")
    r = df / fc
    e = 0.25 * math.pi * r
    denom = math.pi * (4.0 - r * r)
    if kind is RectifierKind.HALF_WAVE:
        return 8.0 * math.cos(e) / denom
    return 8.0 * (2.0 - r * math.sin(e)) * math.cos(e) / denom
