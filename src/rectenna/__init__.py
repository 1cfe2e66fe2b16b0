"""Fourier-series model of an RF energy-harvesting rectenna.

The model chain is: a sinewave source (with a closed-form DC coefficient for
a two-tone source), an ideal full-wave or half-wave rectifier expanded as a
truncated cosine series, and a parallel RC low-pass filter applied harmonic
by harmonic.  Closed forms
for the DC voltage and ripple are paired with an independent quadrature /
sampling oracle, and a design layer searches the time constant for the best
DC-vs-ripple trade-off.
"""

from .design import (
    DesignResult,
    SweepRow,
    analytic_ripple,
    make_grid,
    optimize_capacitance,
    rectified_reference,
    sampled_ripple,
    sweep_cutoff,
    time_trace,
)
from .oracle import (
    SampleStats,
    quad_b_coefficient,
    quad_coefficient,
    quad_multisine_a0,
    sample_stats,
    steady_state,
)
from .rcfilter import (
    FilteredSeries,
    RcFilter,
    amplification_factor,
    dc_limits,
    dc_voltage,
    eval_filtered,
    filtered_series,
    max_ripple,
    period_extrema,
    period_samples,
    ripple_peak,
)
from .rectifier import (
    DEFAULT_TRUNCATION,
    FourierSeries,
    RectifierKind,
    build_series,
    coefficients,
    eval_series,
    fourier_coefficient,
    multisine_a0,
    rectify,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRUNCATION",
    "DesignResult",
    "FilteredSeries",
    "FourierSeries",
    "RcFilter",
    "RectifierKind",
    "SampleStats",
    "SweepRow",
    "amplification_factor",
    "analytic_ripple",
    "build_series",
    "coefficients",
    "dc_limits",
    "dc_voltage",
    "eval_filtered",
    "eval_series",
    "filtered_series",
    "fourier_coefficient",
    "make_grid",
    "max_ripple",
    "multisine_a0",
    "optimize_capacitance",
    "period_extrema",
    "period_samples",
    "quad_b_coefficient",
    "quad_coefficient",
    "quad_multisine_a0",
    "rectified_reference",
    "rectify",
    "ripple_peak",
    "sample_stats",
    "sampled_ripple",
    "steady_state",
    "sweep_cutoff",
    "time_trace",
]
