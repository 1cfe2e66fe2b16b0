import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectenna import (
    RcFilter,
    RectifierKind,
    amplification_factor,
    build_series,
    dc_limits,
    dc_voltage,
    eval_filtered,
    eval_series,
    filtered_series,
    max_ripple,
    period_extrema,
    period_samples,
    ripple_peak,
    sample_stats,
    transfer,
)

FULL = RectifierKind.FULL_WAVE
HALF = RectifierKind.HALF_WAVE
FC = 915e6


def output_series(kind, filt, amplitude, fc, truncation=256):
    scale = amplification_factor(filt, fc) * amplitude
    return filtered_series(build_series(kind, truncation, scale=scale, fc=fc), filt)


def test_rc_filter_derived_quantities():
    filt = RcFilter(2.0, 3.5e-11)
    assert filt.tau == 2.0 * 3.5e-11
    assert filt.cutoff * filt.tau == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert RcFilter(2.0, 0.0).cutoff == math.inf


def test_rc_filter_from_cutoff_roundtrip():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    assert filt.cutoff == pytest.approx(1e9, rel=1e-12)
    assert RcFilter.from_cutoff(2.0, math.inf).capacitance == 0.0


@pytest.mark.parametrize("resistance,capacitance", [(0.0, 1e-12), (-1.0, 1e-12), (2.0, -1e-12)])
def test_rc_filter_rejects_bad_parameters(resistance, capacitance):
    with pytest.raises(ValueError):
        RcFilter(resistance, capacitance)


def test_rc_filter_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        RcFilter.from_cutoff(2.0, 0.0)


def test_amplification_factor_zero_tau_is_sqrt_resistance():
    assert amplification_factor(RcFilter(2.0, 0.0), FC) == math.sqrt(2.0)


def test_amplification_factor_reference_point():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    delta = amplification_factor(filt, FC)
    assert delta == pytest.approx(1.04336, abs=1e-5)
    # consistency relation delta^2 (1 + (2 pi fc tau)^2) = R
    w = 2 * math.pi * FC * filt.tau
    assert delta**2 * (1 + w * w) == pytest.approx(filt.resistance, rel=1e-12)


def test_amplification_factor_vanishes_for_large_tau():
    tau = 1e3 / (2 * math.pi * FC)  # 2 pi fc tau = 1e3
    filt = RcFilter(2.0, tau / 2.0)
    delta = amplification_factor(filt, FC)
    assert delta == pytest.approx(math.sqrt(2.0) * 1e-3, rel=1e-6)


def test_transfer_dc_gain():
    filt = RcFilter(2.0, 4.7e-11)
    magnitude, phase = transfer(filt, 0.0)
    assert magnitude == 2.0
    assert phase == 0.0


def test_transfer_at_cutoff():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    magnitude, phase = transfer(filt, filt.cutoff)
    assert magnitude == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)
    assert phase == pytest.approx(-math.pi / 4.0, rel=1e-12)


def test_transfer_matches_complex_arithmetic():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    f = FC
    magnitude, phase = transfer(filt, f)
    h = filt.resistance / (1.0 + 1j * 2.0 * math.pi * f * filt.tau)
    assert magnitude == pytest.approx(abs(h), rel=1e-12)
    assert phase == pytest.approx(cmath.phase(h), rel=1e-12)
    assert magnitude == pytest.approx(1.47553, abs=1e-5)
    assert phase == pytest.approx(-0.74104, abs=1e-5)


def test_filtered_series_zero_tau_is_flat():
    fs = output_series(FULL, RcFilter(2.0, 0.0), 1.0, FC)
    assert np.all(fs.gains == 2.0)
    assert np.all(fs.phase_shifts == 0.0)


def test_filtered_series_large_capacitance_kills_harmonics():
    fs = output_series(FULL, RcFilter(2.0, 1.0), 1.0, FC)
    assert np.all(fs.gains < 1e-6 * 2.0)


def test_filtered_series_gains_match_transfer():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    fs = output_series(FULL, filt, 1.0, FC, truncation=4)
    for k in range(1, 5):
        magnitude, phase = transfer(filt, k * FC)
        assert fs.gains[k - 1] == pytest.approx(magnitude, rel=1e-12)
        assert fs.phase_shifts[k - 1] == pytest.approx(phase, rel=1e-12)


def test_filtered_series_gains_strictly_decreasing():
    fs = output_series(FULL, RcFilter.from_cutoff(2.0, 1e9), 1.0, FC, truncation=16)
    assert np.all(np.diff(fs.gains) < 0)
    assert np.all(fs.phase_shifts > -math.pi / 2)
    assert np.all(fs.phase_shifts < 0)


def test_filtered_series_requires_positive_fundamental():
    base = build_series(FULL, 4, scale=1.0, fc=0.0)
    with pytest.raises(ValueError):
        filtered_series(base, RcFilter(2.0, 0.0))


def test_eval_filtered_unfiltered_peak():
    fs = output_series(FULL, RcFilter(2.0, 0.0), 1.0, FC)
    peak = 2.0 * math.sqrt(2.0)
    assert abs(eval_filtered(fs, 0.0) - peak) <= 4.0 / (math.pi * 256) * peak


def test_eval_filtered_zero_scale():
    base = build_series(FULL, 16, scale=0.0, fc=FC)
    fs = filtered_series(base, RcFilter(2.0, 1e-12))
    ts = np.linspace(0.0, 2.0 / FC, 7)
    assert np.all(eval_filtered(fs, ts) == 0.0)


def test_unfiltered_output_equals_resistance_times_series():
    filt = RcFilter(2.0, 0.0)
    base = build_series(FULL, 256, scale=amplification_factor(filt, FC) * 1.0, fc=FC)
    fs = filtered_series(base, filt)
    ts = np.arange(2000) * (1.0 / FC / 2000)
    lhs = eval_filtered(fs, ts)
    rhs = filt.resistance * eval_series(base, ts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_time_average_equals_dc_voltage():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    fs = output_series(FULL, filt, 1.0, FC)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / FC, 8192, refine_argmax=False)
    dc = dc_voltage(FULL, filt, 1.0, FC)
    assert abs(stats.mean - dc) < 1e-9 * dc


def test_dc_voltage_zero_tau_hits_upper_limit_bitwise():
    filt = RcFilter(2.0, 0.0)
    high = dc_limits(FULL, 2.0, 1.0)[1]
    assert dc_voltage(FULL, filt, 1.0, FC) == high
    assert high == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
    assert high == pytest.approx(1.80063, abs=1e-5)


def test_dc_voltage_vanishes_for_huge_capacitance():
    filt = RcFilter(2.0, 1e-3)
    high = dc_limits(FULL, 2.0, 1.0)[1]
    assert dc_voltage(FULL, filt, 1.0, FC) < 1e-6 * high


@settings(max_examples=60, deadline=None)
@given(
    resistance=st.floats(min_value=0.1, max_value=1e3),
    capacitance=st.floats(min_value=0.0, max_value=1e-6),
    fc=st.floats(min_value=1e6, max_value=1e10),
    amplitude=st.floats(min_value=0.01, max_value=10.0),
)
def test_full_to_half_dc_ratio_exactly_two(resistance, capacitance, fc, amplitude):
    filt = RcFilter(resistance, capacitance)
    v_full = dc_voltage(FULL, filt, amplitude, fc)
    v_half = dc_voltage(HALF, filt, amplitude, fc)
    assert v_full == 2.0 * v_half


def test_ripple_peak_zero_tau_equals_max_ripple_bitwise():
    filt = RcFilter(2.0, 0.0)
    assert ripple_peak(FULL, filt, 1.0, FC, 256) == max_ripple(FULL, 1.0, 2.0, 256)
    assert ripple_peak(HALF, filt, 1.0, FC, 256) == max_ripple(HALF, 1.0, 2.0, 256)


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_zero_tau_survives_carrier_overflow(kind):
    # 2 pi fc overflows to inf; tau = 0 must give its exact values, not inf * 0 = nan
    filt = RcFilter(2.0, 0.0)
    assert ripple_peak(kind, filt, 1.3, 1.7e308) == max_ripple(kind, 1.3, 2.0)
    assert amplification_factor(filt, 1.7e308) == math.sqrt(2.0)
    assert transfer(filt, 1.7e308) == (2.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    truncation=st.integers(1, 600),
    fc=st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
)
def test_filtered_series_at_zero_tau_is_finite_for_any_carrier(kind, truncation, fc):
    fs = filtered_series(build_series(kind, truncation, fc=fc), RcFilter(2.0, 0.0))
    assert np.all(np.isfinite(fs.gains)) and np.all(np.isfinite(fs.phase_shifts))


def test_ripple_peak_tends_to_dc_voltage_for_large_tau():
    filt = RcFilter(2.0, 1e-3)
    assert ripple_peak(FULL, filt, 1.0, FC, 256) == pytest.approx(
        dc_voltage(FULL, filt, 1.0, FC), rel=1e-9
    )


def test_max_ripple_converges_to_peak_for_both_kinds():
    peak = 1.0 * 2.0 ** 1.5
    tail = 4.0 / (math.pi * 256) * peak
    assert abs(max_ripple(FULL, 1.0, 2.0, 256) - peak) <= tail
    assert abs(max_ripple(HALF, 1.0, 2.0, 256) - peak) <= tail
    assert max_ripple(FULL, 1.0, 2.0, 256) == pytest.approx(2.82843, abs=2e-2)


def test_max_ripple_zero_amplitude():
    assert max_ripple(FULL, 0.0, 2.0, 256) == 0.0


def test_max_ripple_matches_dense_grid_maximum():
    # brute-force: max over a dense grid of R^(3/2) g(cos)
    ts = np.linspace(0.0, 1.0, 200001)
    brute = float(np.max(2.0 ** 1.5 * np.abs(np.cos(2 * np.pi * ts))))
    assert max_ripple(FULL, 1.0, 2.0, 1024) == pytest.approx(brute, abs=4.0 / (math.pi * 1024) * brute)


def test_dc_limits_values():
    low, high = dc_limits(FULL, 2.0, 1.0)
    assert low == 0.0
    assert high == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
    low_h, high_h = dc_limits(HALF, 2.0, 1.0)
    assert high_h == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
    assert high_h == pytest.approx(0.90032, abs=1e-5)
    assert dc_limits(FULL, 2.0, 0.0) == (0.0, 0.0)


def test_dc_voltage_monotone_in_cutoff_and_bounded():
    cutoffs = np.geomspace(1e7, 1e12, 40)
    values = [dc_voltage(FULL, RcFilter.from_cutoff(2.0, float(fcut)), 1.0, FC) for fcut in cutoffs]
    assert all(a < b for a, b in zip(values, values[1:]))
    low, high = dc_limits(FULL, 2.0, 1.0)
    assert all(low < v < high for v in values)


def test_sampled_peak_below_triangle_bound():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    fs = output_series(FULL, filt, 1.0, FC)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / FC, 2 ** 14)
    base = fs.base
    bound = base.scale * (
        0.5 * base.a0 * filt.resistance + float(np.sum(fs.gains * np.abs(base.ak)))
    )
    assert stats.max <= bound * (1 + 1e-12)


def test_sampled_peak_matches_ripple_peak_at_zero_tau():
    filt = RcFilter(2.0, 0.0)
    fs = output_series(FULL, filt, 1.0, FC)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / FC, 2 ** 14)
    peak = ripple_peak(FULL, filt, 1.0, FC, 256)
    assert stats.max == pytest.approx(peak, rel=1e-9)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(resistance=ANY_FLOAT, capacitance=ANY_FLOAT)
def test_rc_filter_rejects_or_holds_finite_parameters(resistance, capacitance):
    try:
        filt = RcFilter(resistance, capacitance)
    except ValueError:
        return
    assert math.isfinite(filt.resistance) and filt.resistance > 0
    assert math.isfinite(filt.capacitance) and filt.capacitance >= 0


@settings(max_examples=200, deadline=None)
@given(resistance=ANY_FLOAT, cutoff=ANY_FLOAT)
def test_from_cutoff_rejects_or_gives_finite_capacitance(resistance, cutoff):
    try:
        filt = RcFilter.from_cutoff(resistance, cutoff)
    except ValueError:
        return
    assert math.isfinite(filt.capacitance) and filt.capacitance >= 0
    if cutoff == math.inf:
        assert filt.capacitance == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rc_filter_rejects_non_finite_values(value):
    with pytest.raises(ValueError):
        RcFilter(value, 1e-12)
    with pytest.raises(ValueError):
        RcFilter(2.0, value)
    if value != math.inf:  # +inf is the documented C = 0 cut-off
        with pytest.raises(ValueError):
            RcFilter.from_cutoff(2.0, value)


KINDS = st.sampled_from([FULL, HALF])
CUTOFFS = st.one_of(st.just(math.inf), st.floats(min_value=1e7, max_value=1e12))


@settings(max_examples=150, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 300),
    cutoff=CUTOFFS,
    fc=st.floats(min_value=1e6, max_value=1e10),
    n=st.integers(2, 1200),
)
@example(kind=FULL, truncation=256, cutoff=1e9, fc=FC, n=512)  # n = 2K
@example(kind=HALF, truncation=256, cutoff=1e9, fc=FC, n=511)  # odd, below 2K
@example(kind=HALF, truncation=300, cutoff=math.inf, fc=FC, n=2)
def test_period_samples_match_direct_evaluation(kind, truncation, cutoff, fc, n):
    filt = RcFilter.from_cutoff(2.0, cutoff)
    fs = output_series(kind, filt, 1.0, fc, truncation)
    direct = eval_filtered(fs, np.arange(n) * ((1.0 / fc) / n))
    fast = period_samples(fs, n)
    assert fast.shape == (n,)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_period_samples_need_two_samples():
    fs = output_series(FULL, RcFilter(2.0, 0.0), 1.0, FC)
    with pytest.raises(ValueError):
        period_samples(fs, 1)


# 13.56 MHz: a 4096-sample grid is coarser than 1e-12 s, so the maximum is
# sharpened; 915 MHz: it is finer, so the grid maximum stands
@pytest.mark.parametrize("fc", [13.56e6, 915e6])
@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("ratio", [math.inf, 1e4, 300.0, 10.0, 1.0])
def test_period_extrema_match_oracle_sampler(fc, kind, ratio):
    filt = RcFilter.from_cutoff(2.0, ratio * fc)
    fs = output_series(kind, filt, 1.0, fc)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, 4096)
    vmax, vmin = period_extrema(fs, 4096)
    assert vmax - vmin == pytest.approx(stats.peak_to_peak, rel=1e-12)
    assert vmax == pytest.approx(stats.max, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 600),
    cutoff=CUTOFFS,
    fc=st.floats(min_value=1e5, max_value=1e11),
    t=st.floats(min_value=-1e3, max_value=1e3),
)
def test_scalar_evaluation_is_bitwise_the_array_path(kind, truncation, cutoff, fc, t):
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.5, fc, truncation)
    scalar = eval_filtered(fs, t)
    assert isinstance(scalar, float)
    assert scalar == eval_filtered(fs, np.array([t]))[0]


@pytest.mark.parametrize("cutoff", [1e8, 1e9])
def test_analytic_ripple_reads_below_sampled_peak(cutoff):
    # the direction the ripple_peak docstring and the README state
    filt = RcFilter.from_cutoff(2.0, cutoff)
    fs = output_series(FULL, filt, 1.0, FC)
    dc = dc_voltage(FULL, filt, 1.0, FC)
    vmax, _ = period_extrema(fs, 4096)
    assert ripple_peak(FULL, filt, 1.0, FC, 256) - dc < vmax - dc


LONG = np.longdouble
TWO_PI_LONG = 8 * np.arctan(LONG(1))


def long_double_output(fs, ts):
    """The cosine sum in long double, phase ``fc t`` reduced mod 1, one term at a time."""
    base = fs.base
    amps = (fs.gains * base.ak).astype(LONG)
    phases = fs.phase_shifts.astype(LONG)
    u = LONG(base.fundamental_fc) * ts.astype(LONG)
    u -= np.floor(u)
    acc = np.full(ts.shape, LONG(0.5) * LONG(base.a0) * LONG(fs.filt.resistance))
    for i in np.flatnonzero(base.ak):
        acc += amps[i] * np.cos(TWO_PI_LONG * (((i + 1) * u) % 1) + phases[i])
    return LONG(base.scale) * acc


@settings(max_examples=100, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 600),
    cutoff=CUTOFFS,
    fc=st.floats(min_value=1e5, max_value=1e11),
    periods=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=16),
)
@example(kind=HALF, truncation=600, cutoff=math.inf, fc=1e11, periods=[-99.9, 0.0, 0.25, 99.99])
def test_eval_filtered_matches_long_double_cosine_sum(kind, truncation, cutoff, fc, periods):
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.5, fc, truncation)
    ts = np.array(periods) / fc
    err = np.abs(eval_filtered(fs, ts) - long_double_output(fs, ts)).astype(float)
    norm = abs(fs.dc_level) + fs.base.scale * float(np.sum(np.abs(fs.gains * fs.base.ak)))
    assert np.max(err) <= 1e-12 * norm
