"""Source waveforms: single sinewave and unmodulated N-tone multisine.

The multisine is the zero-phase, equally spaced tone comb
``x(t) = U(t) cos(2 pi fc t)`` with envelope
``U(t) = A sin(N pi df t) / sin(pi df t)``.  The envelope has removable
singularities wherever ``sin(pi df t) = 0``; they are evaluated through
the ratio limit so that sampling grids can hit them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rectifier import require_finite_positive

__all__ = [
    "ToneSpec",
    "MultisineSpec",
    "eval_sinewave",
    "eval_multisine_envelope",
    "eval_multisine",
]

# |sin(pi df t)| below this is treated as a removable singularity.
_SINGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class ToneSpec:
    """Single-tone source: peak amplitude (V) and carrier frequency (Hz)."""

    amplitude: float
    carrier_fc: float

    def __post_init__(self):
        require_finite_positive("amplitude", self.amplitude)
        require_finite_positive("carrier_fc", self.carrier_fc)


@dataclass(frozen=True)
class MultisineSpec:
    """Unmodulated multisine: ``tone_count`` tones spaced ``tone_spacing`` Hz.

    Requires ``carrier_fc > tone_count * tone_spacing`` (narrowband comb,
    carrier well above the envelope bandwidth).  ``tone_spacing == 0`` is
    allowed and collapses the envelope to the constant ``tone_count * amplitude``.
    """

    amplitude: float
    carrier_fc: float
    tone_count: int
    tone_spacing: float

    def __post_init__(self):
        require_finite_positive("amplitude", self.amplitude)
        require_finite_positive("carrier_fc", self.carrier_fc)
        if self.tone_count < 1:
            raise ValueError(f"tone_count must be >= 1, got {self.tone_count}")
        require_finite_positive("tone_spacing", self.tone_spacing, allow_zero=True)
        if self.carrier_fc <= self.tone_count * self.tone_spacing:
            raise ValueError(
                "carrier_fc must exceed tone_count * tone_spacing "
                f"({self.carrier_fc} <= {self.tone_count * self.tone_spacing})"
            )

    @property
    def envelope_period(self) -> float:
        """Envelope period 2/tone_spacing (inf for zero spacing)."""
        if self.tone_spacing == 0:
            return float("inf")
        return 2.0 / self.tone_spacing


def _scalarize(t, out):
    return float(out) if np.ndim(t) == 0 else out


def eval_sinewave(spec: ToneSpec, t, gain: float = 1.0, phase: float = 0.0):
    """Evaluate ``gain * A * cos(2 pi fc t + phase)`` at time(s) ``t``.

    ``gain``/``phase`` model a fixed flat channel; the defaults (1, 0)
    are the ideal channel.
    """
    tt = np.asarray(t, dtype=float)
    out = gain * spec.amplitude * np.cos(2.0 * np.pi * spec.carrier_fc * tt + phase)
    return _scalarize(t, out)


def eval_multisine_envelope(spec: MultisineSpec, t):
    """Evaluate the envelope ``U(t) = A sin(N pi df t) / sin(pi df t)``.

    At removable singularities (``sin(pi df t) ~ 0``) the limit
    ``N A cos(N pi df t) / cos(pi df t)`` is returned, so the result is
    continuous and equals ``+-N A`` at the singular points.
    """
    tt = np.asarray(t, dtype=float)
    n = spec.tone_count
    amp = spec.amplitude
    df = spec.tone_spacing
    if df == 0.0:
        out = np.full(tt.shape, n * amp)
        return _scalarize(t, out)
    u = np.pi * df * tt
    s = np.sin(u)
    singular = np.abs(s) < _SINGULARITY_EPS
    safe = np.where(singular, 1.0, s)
    out = np.where(
        singular,
        n * amp * np.cos(n * u) / np.cos(u),
        amp * np.sin(n * u) / safe,
    )
    return _scalarize(t, out)


def eval_multisine(spec: MultisineSpec, t, gain: float = 1.0, phase: float = 0.0):
    """Evaluate ``gain * U(t) * cos(2 pi fc t + phase)`` at time(s) ``t``."""
    tt = np.asarray(t, dtype=float)
    env = eval_multisine_envelope(spec, tt)
    out = gain * env * np.cos(2.0 * np.pi * spec.carrier_fc * tt + phase)
    return _scalarize(t, out)
