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

import numpy as np

__all__ = [
    "RectifierKind",
    "FourierSeries",
    "rectify",
    "fourier_coefficient",
    "coefficients",
    "build_series",
    "eval_series",
    "multisine_a0",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 256

# cos(pi k / 2) by k mod 4, exact.
_COS_HALF_PI = (1, 0, -1, 0)


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


def coefficients(kind: RectifierKind, truncation: int) -> np.ndarray:
    """Cosine coefficients ``a_1 .. a_K`` as one array.

    The same ``k mod 4`` rule as :func:`fourier_coefficient`, vectorized, and
    bitwise equal to it: odd k != 1 are exactly +0.0.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    numerator = 4.0 if kind is RectifierKind.FULL_WAVE else 2.0
    ak = np.zeros(truncation)
    ak[0] = fourier_coefficient(kind, 1)
    even = np.arange(2, truncation + 1, 2)
    cs = np.take(_COS_HALF_PI, even % 4)
    ak[1::2] = numerator * cs / (math.pi * (1.0 - even.astype(float) ** 2))
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


def build_series(
    kind: RectifierKind,
    truncation: int = DEFAULT_TRUNCATION,
    scale: float = 1.0,
    fc: float = 1.0,
) -> FourierSeries:
    """Build the series truncated at harmonic ``truncation`` (K >= 1)."""
    ak = coefficients(kind, truncation)
    ak.setflags(write=False)
    return FourierSeries(
        kind=kind,
        a0=fourier_coefficient(kind, 0),
        ak=ak,
        truncation=truncation,
        scale=scale,
        fundamental_fc=fc,
    )


def eval_series(series: FourierSeries, t):
    """Evaluate ``scale * (a0/2 + sum_k a_k cos(2 pi k fc t))`` at time(s) t."""
    tt = np.asarray(t, dtype=float)
    w = 2.0 * np.pi * series.fundamental_fc
    acc = np.full(tt.shape, 0.5 * series.a0)
    for k, a in enumerate(series.ak, start=1):
        if a != 0.0:
            acc += a * np.cos((w * k) * tt)
    out = series.scale * acc
    return float(out) if np.ndim(t) == 0 else out


def multisine_a0(kind: RectifierKind, fc: float, df: float) -> float:
    """DC coefficient ``a0`` of the rectified two-tone multisine.

    Tones at ``fc +- df/2``; the coefficient is normalized per tone so that
    ``df -> 0`` recovers the single-tone ``a0`` (4/pi or 2/pi).  Valid for
    ``0 <= df < 2 fc``; beyond that the rectifier conduction pattern changes
    and the expression loses meaning.
    """
    if fc <= 0:
        raise ValueError(f"fc must be > 0, got {fc}")
    if df < 0:
        raise ValueError(f"df must be >= 0, got {df}")
    if df >= 2.0 * fc:
        raise ValueError(f"df must be < 2*fc ({df} >= {2.0 * fc})")
    e = 0.25 * math.pi * df / fc
    denom = math.pi * (4.0 * fc * fc - df * df)
    if kind is RectifierKind.HALF_WAVE:
        return 8.0 * fc * fc * math.cos(e) / denom
    return 8.0 * fc * (2.0 * fc - df * math.sin(e)) * math.cos(e) / denom
