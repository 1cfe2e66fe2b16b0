import cmath
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectenna import (
    RcFilter,
    RectifierKind,
    amplification_factor,
    build_series,
    coefficients,
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
    sampled_ripple,
    sweep_cutoff,
)
from rectenna import rcfilter
from rectenna.rcfilter import grid_extrema, period_grid, taylor_table

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


def transfer_at(filt, f, truncation=1):
    """``H(k f)`` for k = 1..K, as :func:`filtered_series` attaches it."""
    return filtered_series(build_series(FULL, truncation, fc=f), filt).transfers


def test_transfer_dc_gain():
    # the least subnormal carrier: x = f tau rounds to 0, so every harmonic gets H = R
    h = transfer_at(RcFilter(2.0, 4.7e-11), 5e-324, truncation=4)
    assert np.all(np.abs(h) == 2.0)
    assert np.all(np.angle(h) == 0.0)


def test_transfer_at_cutoff():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    (h,) = transfer_at(filt, filt.cutoff)
    assert abs(h) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)
    assert cmath.phase(h) == pytest.approx(-math.pi / 4.0, rel=1e-12)


def test_transfer_matches_complex_arithmetic():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    f = FC
    (h,) = transfer_at(filt, f)
    expected = filt.resistance / (1.0 + 1j * 2.0 * math.pi * f * filt.tau)
    assert abs(h) == pytest.approx(abs(expected), rel=1e-12)
    assert cmath.phase(h) == pytest.approx(cmath.phase(expected), rel=1e-12)
    assert abs(h) == pytest.approx(1.47553, abs=1e-5)
    assert cmath.phase(h) == pytest.approx(-0.74104, abs=1e-5)


def test_filtered_series_zero_tau_is_flat():
    fs = output_series(FULL, RcFilter(2.0, 0.0), 1.0, FC)
    assert np.all(np.abs(fs.transfers) == 2.0)
    assert np.all(np.angle(fs.transfers) == 0.0)


def test_filtered_series_large_capacitance_kills_harmonics():
    fs = output_series(FULL, RcFilter(2.0, 1.0), 1.0, FC)
    assert np.all(np.abs(fs.transfers) < 1e-6 * 2.0)


def test_filtered_series_gains_match_transfer():
    filt = RcFilter.from_cutoff(2.0, 1e9)
    fs = output_series(FULL, filt, 1.0, FC, truncation=4)
    for k in range(1, 5):
        h = fs.transfers[k - 1]
        expected = filt.resistance / (1.0 + 1j * 2.0 * math.pi * k * FC * filt.tau)
        assert abs(h) == pytest.approx(abs(expected), rel=1e-12)
        assert cmath.phase(h) == pytest.approx(cmath.phase(expected), rel=1e-12)


def test_filtered_series_gains_strictly_decreasing():
    fs = output_series(FULL, RcFilter.from_cutoff(2.0, 1e9), 1.0, FC, truncation=16)
    assert np.all(np.diff(np.abs(fs.transfers)) < 0)
    assert np.all(np.angle(fs.transfers) > -math.pi / 2)
    assert np.all(np.angle(fs.transfers) < 0)


def test_filtered_series_requires_positive_fundamental():
    # build_series refuses fc = 0 itself, so the bad series is built around it
    with pytest.raises(ValueError, match="^fc must be finite"):
        build_series(FULL, 4, scale=1.0, fc=0.0)
    base = dataclasses.replace(build_series(FULL, 4, scale=1.0), fundamental_fc=0.0)
    with pytest.raises(ValueError, match="^fc must be finite"):
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
    # 2 pi fc overflows to inf, but the filter sees only x = fc tau, which is
    # 0 at tau = 0 for any carrier: the unfiltered values, exactly
    filt = RcFilter(2.0, 0.0)
    assert ripple_peak(kind, filt, 1.3, 1.7e308) == max_ripple(kind, 1.3, 2.0)
    assert amplification_factor(filt, 1.7e308) == math.sqrt(2.0)
    h = transfer_at(filt, 1.7e308, truncation=256)
    assert np.all(np.abs(h) == 2.0) and np.all(np.angle(h) == 0.0)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    truncation=st.integers(1, 600),
    fc=st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
)
def test_filtered_series_at_zero_tau_is_finite_for_any_carrier(kind, truncation, fc):
    fs = filtered_series(build_series(kind, truncation, fc=fc), RcFilter(2.0, 0.0))
    assert np.all(np.isfinite(fs.transfers))


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
        0.5 * base.a0 * filt.resistance + float(np.sum(np.abs(fs.transfers) * np.abs(base.ak)))
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
    n=st.integers(1, 600).map(lambda m: 2 * m),
)
@example(kind=FULL, truncation=256, cutoff=1e9, fc=FC, n=512)  # n = 2K
@example(kind=HALF, truncation=256, cutoff=1e9, fc=FC, n=510)  # below 2K
@example(kind=HALF, truncation=300, cutoff=math.inf, fc=FC, n=2)
@example(kind=FULL, truncation=256, cutoff=1e9, fc=FC, n=4096)  # the CLI's grid
@example(kind=HALF, truncation=256, cutoff=1e9, fc=FC, n=4096)
def test_period_samples_match_direct_evaluation(kind, truncation, cutoff, fc, n):
    filt = RcFilter.from_cutoff(2.0, cutoff)
    fs = output_series(kind, filt, 1.0, fc, truncation)
    direct = eval_filtered(fs, np.arange(n) * ((1.0 / fc) / n))
    fast = period_samples(fs, n)
    assert fast.shape == (n,)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))


@settings(max_examples=100, deadline=None)
@given(
    kind=KINDS, truncation=st.integers(1, 900), cutoff=CUTOFFS,
    n=st.integers(1, 150).map(lambda m: 2 * m),
)
@example(kind=HALF, truncation=900, cutoff=1e9, n=6)  # odd half grid, ~150 per bin
@example(kind=HALF, truncation=900, cutoff=1e9, n=8)  # each half-grid bin takes ~112
def test_period_samples_fold_harmonics_as_bincount(kind, truncation, cutoff, n):
    # the engine's construction, rebuilt: on a grid of m = n/2 points,
    # harmonic 2j is frequency j, and frequency f lands in bin b = f mod m, or
    # conjugated in bin m - b when b > m/2, added in frequency order by
    # np.bincount; then one real inverse FFT, and the c_1 cosine added and
    # subtracted on the two half periods
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.5, FC, truncation)
    amps, scale = fs.amplitudes, fs.base.scale
    m = n // 2
    placed = amps[1::2]
    bins = np.arange(1, placed.size + 1) % m
    mirrored = 2 * bins > m
    bins[mirrored] = m - bins[mirrored]
    spectrum = np.empty(m // 2 + 1, dtype=complex)
    spectrum.real = np.bincount(bins, weights=placed.real, minlength=m // 2 + 1)
    spectrum.imag = np.bincount(
        bins, weights=np.where(mirrored, -placed.imag, placed.imag), minlength=m // 2 + 1
    )
    spectrum[0] += 0.5 * fs.base.a0 * fs.filt.resistance
    # irfft sums bin 0, the Nyquist bin and twice the real part of the others
    spectrum *= 0.5 * scale
    spectrum[0] *= 2.0
    if m % 2 == 0:
        spectrum[m // 2] *= 2.0
    even_part = np.fft.irfft(spectrum, m, norm="forward")
    c1 = amps[0] * scale
    if c1:
        roots = np.exp((2j * np.pi / n) * np.arange(m))
        first = c1.real * roots.real - c1.imag * roots.imag
    else:
        first = np.zeros(m)
    expected = np.concatenate([even_part + first, even_part - first])
    assert period_samples(fs, n).tobytes() == expected.tobytes()


def test_period_samples_need_two_samples():
    fs = output_series(FULL, RcFilter(2.0, 0.0), 1.0, FC)
    with pytest.raises(ValueError):
        period_samples(fs, 1)


def test_odd_sample_counts_are_refused():
    # the period grid folds the even harmonics onto n/2 points; no caller
    # passes an odd n
    filt = RcFilter.from_cutoff(2.0, 1e9)
    fs = output_series(FULL, filt, 1.0, FC)
    amps, scales = fs.amplitudes[None, :], [fs.base.scale]
    refused = [
        lambda: period_grid(amps, scales, 0.0, 4095),
        lambda: grid_extrema(amps, scales, 0.0, FC, 4095),
        lambda: period_samples(fs, 4095),
        lambda: sampled_ripple(FULL, filt, 1.0, FC, samples=4095),
        lambda: sweep_cutoff(FULL, 2.0, 1.0, FC, 1e8, 1e10, 3, "log", samples=255),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="even"):
            call()


@pytest.mark.parametrize("n", [4096, 6])
@pytest.mark.parametrize("k", [3, 255])
def test_period_grid_rejects_odd_harmonics_above_one(n, k):
    # the engine serves the rectifier's series only, whose odd k >= 3 are zero
    amps = np.zeros((2, 256), dtype=complex)
    amps[:, 0], amps[:, 1] = 0.5, 0.25
    period_grid(amps, [1.0, 2.0], 0.5, n)
    amps[1, k - 1] = 1e-300j
    with pytest.raises(ValueError):
        period_grid(amps, [1.0, 2.0], 0.5, n)
    with pytest.raises(ValueError):
        grid_extrema(amps, [1.0, 2.0], 0.5, 13.56e6, n)


# Arguments the public grid functions refuse, each with the start of its
# message: a replacement for GRID_CALL's arguments.  Two identical rows with
# K = 4 (k = 3 zero) are good arguments.
GRID_CALL = {
    "amplitudes": np.array([[1.0, 1.0, 0.0, 1.0]] * 2), "scales": [1.0, 1.0], "dc": 0.0, "n": 8,
}
BAD_GRID_ARGUMENTS = {
    "one-scale-for-two-rows": ({"scales": [1.0]}, "need one finite scale"),
    "three-scales-for-two-rows": ({"scales": [1.0, 1.0, 1.0]}, "need one finite scale"),
    "scalar-scale": ({"scales": 1.0}, "need one finite scale"),
    "nan-scale": ({"scales": [1.0, math.nan]}, "need one finite scale"),
    "inf-scale": ({"scales": [math.inf, 1.0]}, "need one finite scale"),
    "negative-scale": ({"scales": [1.0, -1.0]}, "need one finite scale"),
    "nan-dc": ({"dc": math.nan}, "dc must be finite"),
    "inf-dc": ({"dc": -math.inf}, "dc must be finite"),
    "no-harmonics": (
        {"amplitudes": np.zeros((1, 0)), "scales": [1.0]}, "amplitudes must be a 2-D"
    ),
    "one-dimensional": (
        {"amplitudes": np.array([1.0, 1.0, 0.0, 1.0]), "scales": [1.0]}, "amplitudes must be a 2-D"
    ),
}


def grid_call(function, fc=1e6, **changes):
    args = {**GRID_CALL, **changes}
    if function is period_grid:
        return period_grid(args["amplitudes"], args["scales"], args["dc"], args["n"])
    return grid_extrema(args["amplitudes"], args["scales"], args["dc"], fc, args["n"])


@pytest.mark.parametrize("function", [period_grid, grid_extrema], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", list(BAD_GRID_ARGUMENTS))
def test_public_grid_functions_refuse_bad_arguments(function, case):
    # a caller gets an error, not extrema of rows it did not scale (one
    # scale broadcast to a block polishes only row 0), nan output, or an
    # IndexError from deep in the kernel
    changes, message = BAD_GRID_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        grid_call(function, **changes)


@pytest.mark.parametrize("fc", [0.0, -1.0, math.nan, math.inf])
def test_grid_extrema_refuses_a_bad_carrier(fc):
    # the carrier only picks the polish, so a bad one would pass unnoticed
    # (or divide by zero at fc = 0)
    with pytest.raises(ValueError, match="^fc must be finite"):
        grid_call(grid_extrema, fc=fc)


def test_grid_extrema_of_identical_rows_are_identical():
    vmaxs, vmins = grid_call(grid_extrema)
    assert vmaxs[0] == vmaxs[1] and vmins[0] == vmins[1]
    grid = grid_call(period_grid)
    assert vmaxs[0] >= grid.max() and vmins[0] <= grid.min()


def test_grid_functions_take_a_block_of_no_rows():
    empty = np.zeros((0, 4))
    assert period_grid(empty, [], 0.0, 8).shape == (0, 8)
    assert grid_extrema(empty, [], 0.0, 1e6, 8) == ([], [])


@pytest.mark.parametrize(
    "amplitudes,fc,message",
    [
        (np.zeros(0), FC, "amplitudes must be a 1-D"),
        (np.zeros((2, 4)), FC, "amplitudes must be a 1-D"),
        (coefficients(HALF, 8), 0.0, "fc must be finite"),
        (coefficients(HALF, 8), -1.0, "fc must be finite"),
    ],
    ids=["no-harmonics", "two-dimensional", "zero-carrier", "negative-carrier"],
)
def test_taylor_table_refuses_bad_arguments(amplitudes, fc, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        taylor_table(amplitudes, fc)


EIGHT_CAPS = [0.0, 1e-12, 1e-11, 3e-11, 1e-10, 1e-9, 0.0, 1e-8]


@settings(max_examples=150, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 700),
    n=st.integers(1, 4096).map(lambda m: 2 * m),
    caps=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-16, max_value=1e-8)),
        min_size=1, max_size=9,
    ),
    log_fc=st.floats(min_value=5.0, max_value=11.0),
)
# polished blocks of 8 rows (16 stacked lanes) at 13.56 MHz, both kinds;
# folds (n < 2K) that the polish skips; an unpolished 915 MHz block
@example(kind=HALF, truncation=256, n=4096, caps=EIGHT_CAPS, log_fc=7.13)
@example(kind=FULL, truncation=256, n=4096, caps=EIGHT_CAPS, log_fc=7.13)
@example(kind=HALF, truncation=700, n=1000, caps=[0.0, 1e-10], log_fc=7.0)
@example(kind=FULL, truncation=700, n=2, caps=[1e-10, 0.0, 1e-9], log_fc=5.0)
@example(kind=HALF, truncation=256, n=4096, caps=[0.0, 1e-11, 1e-10], log_fc=8.96)
def test_grid_extrema_read_the_public_grid(kind, truncation, n, caps, log_fc):
    # one block of rows with their own capacitance each, as a sweep forms it
    fc = 10.0**log_fc
    rows = [output_series(kind, RcFilter(2.0, c), 1.0, fc, truncation) for c in caps]
    amps = np.array([fs.amplitudes for fs in rows])
    scales = [fs.base.scale for fs in rows]
    dc = 0.5 * rows[0].base.a0 * 2.0
    vmaxs, vmins = grid_extrema(amps, scales, dc, fc, n)
    grid = period_grid(amps, scales, dc, n)
    grid_max, grid_min = grid.max(axis=1).tolist(), grid.min(axis=1).tolist()
    if (1.0 / fc) / n <= 1e-12 or n < 2 * truncation:
        assert np.array(vmaxs).tobytes() == np.array(grid_max).tobytes()
        assert np.array(vmins).tobytes() == np.array(grid_min).tobytes()
        return
    assert all(v >= g for v, g in zip(vmaxs, grid_max))
    assert all(v <= g for v, g in zip(vmins, grid_min))
    for r in range(len(rows)):
        alone = grid_extrema(amps[r : r + 1], scales[r : r + 1], dc, fc, n)
        assert np.array(alone).tobytes() == np.array([[vmaxs[r]], [vmins[r]]]).tobytes()


def output_norm(fs):
    """Bound on the output's magnitude: ``scale (|dc| + sum_k |c_k|)``."""
    dc = 0.5 * fs.base.a0 * fs.filt.resistance
    return fs.base.scale * (abs(dc) + np.sum(np.abs(fs.amplitudes)))


def grid_bias(fs, n):
    """How far an n-sample grid extremum can sit from the exact one.

    Half a step ``h = 2 pi / n`` from a smooth extremum, the output is lower
    by at most ``h^2 / 8`` times the bound ``scale sum_k k^2 |c_k|`` on its
    second derivative.
    """
    ks = np.arange(1, fs.base.truncation + 1)
    curvature = fs.base.scale * np.sum(ks**2 * np.abs(fs.amplitudes))
    return (2.0 * math.pi / n) ** 2 / 8.0 * curvature


# 13.56 MHz: a 4096-sample grid is coarser than 1e-12 s, so both extrema are
# Newton-polished; 915 MHz: it is finer, so the grid extrema stand
@pytest.mark.parametrize("fc", [13.56e6, 915e6])
@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("ratio", [math.inf, 1e4, 300.0, 10.0, 1.0])
def test_period_extrema_match_oracle_sampler(fc, kind, ratio):
    filt = RcFilter.from_cutoff(2.0, ratio * fc)
    fs = output_series(kind, filt, 1.0, fc)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, 4096)
    vmax, vmin = period_extrema(fs, 4096)
    if fc * 4096 < 1e12:
        # the oracle golden-refines the max in the basin Newton polishes, and
        # leaves the min on the grid; neither moves further than the grid bias.
        # The 4-ulp roundoff slack matters where an extremum lies on the grid
        # (the unfiltered full wave's maximum and minimum)
        bias, slack = grid_bias(fs, 4096), 4.0 * math.ulp(output_norm(fs))
        assert stats.max - slack <= vmax <= stats.max + bias
        assert stats.min - bias <= vmin <= stats.min + slack
        return
    assert vmax - vmin == pytest.approx(stats.peak_to_peak, rel=1e-12)
    assert vmax == pytest.approx(stats.max, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 64),
    samples_per_harmonic=st.integers(4, 16).map(lambda m: 2 * m),
    cutoff=CUTOFFS,
    log_fc=st.floats(min_value=5.0, max_value=10.0),
)
@example(kind=HALF, truncation=64, samples_per_harmonic=8, cutoff=1e9, log_fc=7.0)
def test_polished_extrema_lie_between_the_grid_and_the_dense_oracle(
    kind, truncation, samples_per_harmonic, cutoff, log_fc
):
    # carriers on both sides of fc * n = 1e12, where polishing stops
    fc = 10.0**log_fc
    n = samples_per_harmonic * truncation
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.0, fc, truncation)
    vmax, vmin = period_extrema(fs, n)
    grid = period_samples(fs, n)
    assert vmax >= grid.max() and vmin <= grid.min()
    dense = 2**16
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, dense)
    slack = grid_bias(fs, dense) + 1e-13 * output_norm(fs)
    assert vmax <= stats.max + slack
    assert vmin >= stats.min - slack


@settings(max_examples=60, deadline=None)
@given(
    series=st.sampled_from([(FULL, 2), (FULL, 3), (HALF, 1)]),
    cutoff=CUTOFFS,
    n=st.integers(3, 32).map(lambda m: 2 * m),
    log_fc=st.floats(min_value=5.0, max_value=9.0),
)
def test_polished_extrema_of_one_harmonic_are_exact(series, cutoff, n, log_fc):
    # one nonzero harmonic c_k: the output swings exactly dc +- |c_k|, which
    # a coarse grid misses by up to (pi k / n)^2 / 2 of |c_k|
    kind, truncation = series
    fc = 10.0**log_fc
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.0, fc, truncation)
    swing = np.sum(np.abs(fs.amplitudes))
    dc = 0.5 * fs.base.a0 * fs.filt.resistance
    vmax, vmin = period_extrema(fs, n)
    tol = 1e-14 * output_norm(fs)
    assert vmax == pytest.approx(fs.base.scale * (dc + swing), rel=0, abs=tol)
    assert vmin == pytest.approx(fs.base.scale * (dc - swing), rel=0, abs=tol)


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


@settings(max_examples=200, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 600),
    cutoff=CUTOFFS,
    fc=st.floats(min_value=1e5, max_value=1e11),
    t=st.floats(min_value=-1e3, max_value=1e3),
    others=st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=63),
    where=st.integers(0),
)
def test_scalar_evaluation_is_bitwise_any_array_element(
    kind, truncation, cutoff, fc, t, others, where
):
    # the array kernel writes into reused buffers; no element may round
    # differently for its position in the array or for its neighbours
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.5, fc, truncation)
    i = where % (len(others) + 1)
    ts = np.array(others[:i] + [t] + others[i:])
    assert eval_filtered(fs, t) == eval_filtered(fs, ts)[i]
    assert eval_series(fs.base, t) == eval_series(fs.base, ts)[i]


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
    amps = (np.abs(fs.transfers) * base.ak).astype(LONG)
    phases = np.angle(fs.transfers).astype(LONG)
    u = LONG(base.fundamental_fc) * ts.astype(LONG)
    u -= np.floor(u)
    acc = np.full(ts.shape, LONG(0.5) * LONG(base.a0) * LONG(fs.filt.resistance))
    for i in np.flatnonzero(base.ak):
        acc += amps[i] * np.cos(TWO_PI_LONG * (((i + 1) * u) % 1) + phases[i])
    return LONG(base.scale) * acc


@settings(max_examples=100, deadline=None)
@given(
    kind=KINDS,
    truncation=st.integers(1, 2000),
    cutoff=CUTOFFS,
    fc=st.floats(min_value=1e5, max_value=1e11),
    periods=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=16),
)
@example(kind=HALF, truncation=600, cutoff=math.inf, fc=1e11, periods=[-99.9, 0.0, 0.25, 99.99])
@example(kind=FULL, truncation=2000, cutoff=1e9, fc=13.56e6, periods=[-3.3, 0.125, 0.5, 7.77])
@example(kind=HALF, truncation=2000, cutoff=math.inf, fc=FC, periods=[0.0, 0.25, 0.5, 0.75])
def test_eval_filtered_matches_long_double_cosine_sum(kind, truncation, cutoff, fc, periods):
    # K up to 2000 takes the Taylor table past 4096 grid phases (8192 at K = 2000)
    fs = output_series(kind, RcFilter.from_cutoff(2.0, cutoff), 1.5, fc, truncation)
    ts = np.array(periods) / fc
    err = np.abs(eval_filtered(fs, ts) - long_double_output(fs, ts)).astype(float)
    base = fs.base
    dc = base.scale * base.a0 * fs.filt.resistance / 2.0
    norm = abs(dc) + base.scale * float(np.sum(np.abs(fs.transfers) * np.abs(base.ak)))
    assert np.max(err) <= 1e-12 * norm


def taylor_tail(x, degree):
    """``sum_{p > D} x^p / p!``, the relative Taylor tail a degree-D cut drops."""
    return math.fsum(x**p / math.factorial(p) for p in range(degree + 1, degree + 60))


@pytest.mark.parametrize("truncation", [1, 256, 600, 1024, 2000])
def test_taylor_table_degree_keeps_the_tail_below_1e_17(truncation):
    table = taylor_table(coefficients(HALF, truncation), FC)
    rows, n = table.shape
    assert n & (n - 1) == 0 and 4 * truncation <= n < 8 * truncation
    # |u| <= 1/2 grid step: the tail is at most sum_k |c_k| sum_{p > D} (K h / 2)^p / p!
    x = truncation * math.pi / n
    assert taylor_tail(x, rows - 1) <= 1e-17 < taylor_tail(x, rows - 2)
    assert not table.flags.writeable


def derivative_amplitudes(amplitudes, n, rows):
    """``c_k (j k h)^p / p!`` for p < rows and ``h = 2 pi / n``, one row per
    p: a running product of the real ``(k h)^p / p!``, times ``j^p``."""
    kh = (2.0 * np.pi / n) * np.arange(1, amplitudes.shape[0] + 1)
    magnitude = np.ones(amplitudes.shape[0])
    out = np.empty((rows, amplitudes.shape[0]), dtype=complex)
    for p in range(rows):
        if p:
            magnitude = magnitude * kh / p
        out[p] = amplitudes * ((1.0, 1j, -1.0, -1j)[p % 4] * magnitude)
    return out


@pytest.mark.parametrize("filtered", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("truncation", [1, 2, 64, 256, 1024])
def test_taylor_table_rows_are_period_grids_of_derivative_amplitudes(
    truncation, kind, filtered, monkeypatch
):
    # row p is bitwise the period grid of c_k (j k h)^p / p!, whichever
    # blocks of rows the table is built in: one row, or the whole table
    amplitudes = coefficients(kind, truncation)
    if filtered:
        filt = RcFilter.from_cutoff(2.0, 1e9)
        amplitudes = output_series(kind, filt, 1.0, FC, truncation).amplitudes
    table = taylor_table(amplitudes, FC)
    rows, n = table.shape
    want = period_grid(derivative_amplitudes(amplitudes, n, rows), np.ones(rows), 0.0, n)
    assert table.tobytes() == want.tobytes()
    for cells in (1, 2**40):
        monkeypatch.setattr(rcfilter, "_TABLE_BLOCK_CELLS", cells)
        assert taylor_table(amplitudes, FC).tobytes() == want.tobytes()


@pytest.mark.parametrize("truncation", [1024, 2000])
def test_taylor_table_peaks_near_its_own_size_while_built(truncation):
    # the rows are formed and transformed a block at a time.  Measured with
    # numpy 2.4, a K = 1024 table peaks at 1.38x its own size and K = 2000 at
    # 1.21x (1.71x and 1.37x with blocks twice as large)
    amplitudes = coefficients(HALF, truncation)
    taylor_table(amplitudes, FC)  # caches the factors, which outlive the build
    tracemalloc.start()
    try:
        table = taylor_table(amplitudes, FC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * table.nbytes


def time_one_ulp_below(periods, fc):
    """A time t whose rounded phase ``fc * t`` is the float just below ``periods``."""
    target = math.nextafter(periods, 0.0)
    t = target / fc
    for _ in range(64):
        if fc * t == target:
            return t
        t = math.nextafter(t, math.inf if fc * t < target else 0.0)
    raise AssertionError(f"no t has fc * t = {target!r}")


@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("fc", [1.0, FC, 13.56e6])
def test_phase_one_ulp_below_a_whole_period_wraps_to_grid_phase_zero(kind, fc):
    # fc t mod 1 rounds to n grid steps just below an integer; its index
    # wraps to 0, where the phase is the same up to roundoff
    fs = output_series(kind, RcFilter.from_cutoff(2.0, 1e9), 1.0, fc)
    n = fs.table.shape[1]
    for periods in (1.0, 3.0):
        t = time_one_ulp_below(periods, fc)
        assert round((fc * t) % 1.0 * n) == n
        value = eval_filtered(fs, t)
        assert value == eval_filtered(fs, np.array([0.5 / fc, t]))[1]
        assert value == pytest.approx(eval_filtered(fs, 0.0), rel=0, abs=1e-13 * output_norm(fs))


def test_eval_filtered_keeps_the_shape_of_a_two_dimensional_t():
    fs = output_series(HALF, RcFilter.from_cutoff(2.0, 1e9), 1.0, FC)
    ts = np.arange(12.0).reshape(3, 4) * 1e-10
    flat = eval_filtered(fs, ts.ravel())
    assert eval_filtered(fs, ts).tobytes() == flat.reshape(3, 4).tobytes()
    assert eval_filtered(fs, ts[:, :1]).shape == (3, 1)


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_eval_rejects_a_carrier_whose_top_harmonic_overflows(kind):
    # 2 pi K fc is inf: the table would read finite values at phases that
    # mean nothing, so the evaluators refuse the series
    filt = RcFilter(2.0, 0.0)
    fc = 1.7e308
    fs = filtered_series(build_series(kind, 256, scale=1.0, fc=fc), filt)
    for evaluate in (lambda t: eval_filtered(fs, t), lambda t: eval_series(fs.base, t)):
        with pytest.raises(ValueError, match="not finite"):
            evaluate(0.0)
    top = sys.float_info.max / (2.0 * math.pi * 2)
    fine = filtered_series(build_series(kind, 2, scale=1.0, fc=top), filt)
    assert math.isfinite(eval_filtered(fine, 0.0))
