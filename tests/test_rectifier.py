import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectenna import (
    RectifierKind,
    build_series,
    coefficients,
    eval_series,
    fourier_coefficient,
    multisine_a0,
    rectify,
)

FULL = RectifierKind.FULL_WAVE
HALF = RectifierKind.HALF_WAVE


def test_rectify_scalars():
    assert rectify(FULL, -0.5) == 0.5
    assert rectify(HALF, -0.5) == 0.0
    assert rectify(HALF, 0.7) == 0.7
    assert rectify(FULL, 0.7) == 0.7


def test_rectify_arrays():
    v = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
    assert np.array_equal(rectify(FULL, v), np.abs(v))
    assert np.array_equal(rectify(HALF, v), np.maximum(0.0, v))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6))
def test_half_wave_is_half_of_signal_plus_magnitude(v):
    assert rectify(HALF, v) == pytest.approx((v + abs(v)) / 2.0, rel=1e-15, abs=0.0)


def test_dc_and_fundamental_coefficients():
    assert fourier_coefficient(FULL, 0) == 4.0 / math.pi
    assert fourier_coefficient(HALF, 0) == 2.0 / math.pi
    assert fourier_coefficient(FULL, 1) == 0.0
    assert fourier_coefficient(HALF, 1) == 0.5


def test_low_order_coefficients():
    assert fourier_coefficient(FULL, 2) == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-15)
    assert fourier_coefficient(FULL, 2) == pytest.approx(0.4244132, abs=1e-7)
    assert fourier_coefficient(FULL, 3) == 0.0
    assert fourier_coefficient(FULL, 4) == pytest.approx(-4.0 / (15.0 * math.pi), rel=1e-15)
    assert fourier_coefficient(FULL, 4) == pytest.approx(-0.0848826, abs=1e-7)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fourier_coefficient(FULL, -1)


def test_odd_coefficients_exactly_zero():
    for k in range(3, 65, 2):
        assert fourier_coefficient(FULL, k) == 0.0
        assert fourier_coefficient(HALF, k) == 0.0


def test_full_wave_doubles_half_wave_exactly():
    for k in range(65):
        if k == 1:
            continue
        assert fourier_coefficient(FULL, k) == 2.0 * fourier_coefficient(HALF, k)


def test_sign_pattern_negative_exactly_at_multiples_of_four():
    for k in range(2, 65):
        a = fourier_coefficient(FULL, k)
        if k % 4 == 0:
            assert a < 0.0
        else:
            assert a >= 0.0
            if k % 2 == 0:
                assert a > 0.0


def test_build_series_full_wave_k4():
    series = build_series(FULL, truncation=4, scale=1.0, fc=915e6)
    assert series.a0 == 4.0 / math.pi
    expected = [0.0, 4.0 / (3.0 * math.pi), 0.0, -4.0 / (15.0 * math.pi)]
    assert series.ak == pytest.approx(expected, rel=1e-15)
    assert series.truncation == 4
    assert series.fundamental_fc == 915e6


def test_build_series_half_wave_k1():
    series = build_series(HALF, truncation=1, scale=1.0, fc=1.0)
    assert series.a0 == 2.0 / math.pi
    assert series.ak.tolist() == [0.5]


def test_build_series_rejects_zero_truncation():
    with pytest.raises(ValueError):
        build_series(FULL, truncation=0)


def test_series_coefficients_are_read_only():
    series = build_series(FULL, truncation=8)
    with pytest.raises(ValueError):
        series.ak[0] = 1.0


def test_series_magnitudes_and_phases():
    series = build_series(FULL, truncation=8)
    assert np.array_equal(series.magnitudes, np.abs(series.ak))
    assert set(np.unique(series.phases)) <= {0.0, np.pi}
    assert np.all(series.phases[series.ak < 0] == np.pi)
    assert np.all(series.phases[series.ak > 0] == 0.0)


def test_series_partial_sum_converges_at_peak():
    for kind, peak in ((FULL, 1.0), (HALF, 1.0)):
        series = build_series(kind, truncation=256, scale=1.0, fc=915e6)
        tail = 4.0 / (math.pi * 256)
        assert abs(eval_series(series, 0.0) - peak) <= tail


def test_series_value_at_trough():
    # half-wave rectified cosine is zero at the half period
    series = build_series(HALF, truncation=256, scale=1.0, fc=915e6)
    t_half = 1.0 / (2 * 915e6)
    assert abs(eval_series(series, t_half)) <= 4.0 / (math.pi * 256)


def test_series_zero_scale_evaluates_to_zero():
    series = build_series(FULL, truncation=2, scale=0.0, fc=1.0)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.all(eval_series(series, ts) == 0.0)
    assert eval_series(series, 0.37) == 0.0


def test_series_sup_error_within_tail_bound():
    fc = 915e6
    ts = np.arange(1000) * (1.0 / fc / 1000)
    reference = np.abs(np.cos(2 * np.pi * fc * ts))
    previous = math.inf
    for trunc in (64, 256):
        series = build_series(FULL, truncation=trunc, scale=1.0, fc=fc)
        sup = float(np.max(np.abs(eval_series(series, ts) - reference)))
        assert sup <= 4.0 / (math.pi * trunc)
        assert sup < previous
        previous = sup


def test_multisine_a0_zero_spacing_recovers_single_tone():
    assert multisine_a0(FULL, 915e6, 0.0) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert multisine_a0(HALF, 915e6, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_multisine_a0_reference_value():
    # frozen from the closed form; independently confirmed by quadrature in
    # test_oracle / the acceptance suite
    got = multisine_a0(HALF, 915e6, 91.5e6)
    assert got == pytest.approx(0.6362479058350677, rel=1e-12)


def test_multisine_a0_full_half_factor():
    fc = 915e6
    for ratio in (0.01, 0.05, 0.1, 0.5):
        df = ratio * fc
        factor = multisine_a0(FULL, fc, df) / multisine_a0(HALF, fc, df)
        expected = 2.0 - (df / fc) * math.sin(0.25 * math.pi * df / fc)
        assert factor == pytest.approx(expected, abs=1e-12)


def test_multisine_a0_monotone_decreasing_up_to_carrier():
    fc = 915e6
    dfs = np.linspace(0.0, fc, 200)
    vals = [multisine_a0(HALF, fc, float(df)) for df in dfs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "fc,df",
    [(915e6, 2 * 915e6), (915e6, 3e9), (915e6, -1.0), (0.0, 1.0), (-1.0, 1.0)],
)
def test_multisine_a0_domain_errors(fc, df):
    with pytest.raises(ValueError):
        multisine_a0(HALF, fc, df)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    fc=st.floats(allow_nan=True, allow_infinity=True),
    df=st.floats(allow_nan=True, allow_infinity=True),
)
@example(kind=HALF, fc=915e6, df=math.nan)
@example(kind=FULL, fc=math.inf, df=1e6)
@example(kind=FULL, fc=1e300, df=1e300)  # 4 fc^2 overflows
def test_multisine_a0_rejects_or_is_finite(kind, fc, df):
    try:
        a0 = multisine_a0(kind, fc, df)
    except ValueError:
        return
    assert math.isfinite(a0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_doubling_property(k):
    if k == 1:
        return
    assert fourier_coefficient(FULL, k) == 2.0 * fourier_coefficient(HALF, k)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from([FULL, HALF]), truncation=st.integers(1, 2000))
def test_coefficients_bitwise_equal_scalar_rule(kind, truncation):
    expected = np.array([fourier_coefficient(kind, k) for k in range(1, truncation + 1)])
    assert coefficients(kind, truncation).tobytes() == expected.tobytes()
