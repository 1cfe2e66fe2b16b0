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
    "coefficient_tail",
    "table_sum",
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

    @cached_property
    def table(self) -> np.ndarray:
        """:func:`rectenna.rcfilter.taylor_table` of ``ak``, built on first use."""
        from .rcfilter import taylor_table  # rcfilter imports this module

        return taylor_table(self.ak, self.fundamental_fc)


def build_series(
    kind: RectifierKind,
    truncation: int = DEFAULT_TRUNCATION,
    scale: float = 1.0,
    fc: float = 1.0,
) -> FourierSeries:
    """Build the series truncated at harmonic ``truncation`` (K >= 1)."""
    require_finite_positive("scale", scale, allow_zero=True)
    require_finite_positive("fc", fc)
    return FourierSeries(
        kind=kind,
        a0=fourier_coefficient(kind, 0),
        ak=coefficients(kind, truncation),
        truncation=truncation,
        scale=scale,
        fundamental_fc=fc,
    )


def coefficient_tail(kind: RectifierKind, truncation: int) -> float:
    """``sum_{k > K} |a_k|``, the coefficients the truncation drops.

    Only even k contribute: ``(4 / pi) sum_{m > K/2} 1 / ((2m - 1)(2m + 1))``
    telescopes to ``(2 / pi) / (2 floor(K / 2) + 1)`` for the full wave, and
    the half wave's is half that.  A filter with ``|H| <= R`` therefore moves
    its output at most ``scale R`` times this from the untruncated series.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    tail = (2.0 / math.pi) / (2 * (truncation // 2) + 1)
    return tail if kind is RectifierKind.FULL_WAVE else 0.5 * tail


def table_sum(table: np.ndarray, fc: float, t):
    """``Re sum_k c_k exp(j 2 pi k fc t)`` at time(s) t, from a Taylor table.

    ``table`` is :func:`rectenna.rcfilter.taylor_table` of the ``c_k``: row
    p, column i holds ``r_p(i)``, the p-th Taylor coefficient of the sum
    around grid phase i of n (a power of two).  For each t, ``x = (fc t mod
    1) n``, ``i = rint(x) mod n`` and ``u = x - rint(x)``, ``|u| <= 1/2``,
    and the value is ``sum_p r_p(i) u^p`` by Horner's rule in u.  A scalar t
    runs as a one-element array through the same ufuncs, so it returns a
    float bitwise equal to the array path's element, wherever t sits in the
    array.  The phase ``fc t`` is reduced mod 1 before any scaling, so
    rounding in the product is the only phase error.  Raises ``ValueError``
    unless every phase ``fc t`` is finite.
    """
    n = table.shape[1]
    x = _phases(fc, t)
    np.remainder(x, 1.0, out=x)
    x *= n
    nearest = np.rint(x)
    u = np.subtract(x, nearest, out=x)
    index = nearest.astype(np.intp)
    index &= n - 1  # x rounds up to n just below a whole period
    value = table[-1].take(index)
    for row in table[-2::-1]:
        value *= u
        value += row.take(index)
    if np.ndim(t) == 0:
        return float(value[0])
    return value.reshape(np.shape(t))


def _phases(fc: float, t) -> np.ndarray:
    """``fc t`` for each time in t, as a new flat array; ``ValueError`` unless all are finite."""
    phases = np.multiply(fc, np.ravel(t), dtype=float)
    if not np.isfinite(phases).all():
        raise ValueError("t must hold finite times, with fc * t finite")
    return phases


def eval_series(series: FourierSeries, t):
    """Evaluate ``scale * (a0/2 + sum_k a_k cos(2 pi k fc t))`` at time(s) t.

    The unit-filter case of :func:`rectenna.rcfilter.eval_filtered`: the
    same evaluator (:func:`table_sum`) on the table of the real ``a_k``.
    """
    return series.scale * (0.5 * series.a0 + table_sum(series.table, series.fundamental_fc, t))


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
