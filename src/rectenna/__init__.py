"""Fourier-series model of an RF energy-harvesting rectenna.

The model chain is: a sinewave source (with a closed-form DC coefficient for
a two-tone source), an ideal full-wave or half-wave rectifier expanded as a
truncated cosine series, and a parallel RC low-pass filter applied harmonic
by harmonic.  Closed forms
for the DC voltage and ripple are paired with an independent quadrature /
sampling oracle, and a design layer searches the time constant for the best
DC-vs-ripple trade-off.
"""

from types import ModuleType as _ModuleType

from .design import (
    DesignResult,
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

# each export is named once, in its import: every public name the imports
# above bind, less the submodules they bind too
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
