import ast
import importlib.util
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import rectenna.design
import rectenna.oracle
import rectenna.rcfilter
from rectenna import (
    RcFilter,
    RectifierKind,
    amplification_factor,
    build_series,
    eval_filtered,
    filtered_series,
    fourier_coefficient,
    multisine_a0,
    quad_b_coefficient,
    quad_coefficient,
    quad_multisine_a0,
    sample_stats,
)
from rectenna.oracle import quad_projection, steady_state
from rectenna.rectifier import coefficient_tail, rectify

FULL = RectifierKind.FULL_WAVE
HALF = RectifierKind.HALF_WAVE


def test_quadrature_recovers_dc_coefficient():
    assert quad_coefficient(FULL, 0, fc=1.0) == pytest.approx(4.0 / math.pi, abs=1e-10)
    assert quad_coefficient(HALF, 0, fc=1.0) == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_quadrature_fundamental():
    assert quad_coefficient(HALF, 1, fc=1.0) == pytest.approx(0.5, abs=1e-10)
    assert abs(quad_coefficient(FULL, 1, fc=1.0)) < 1e-10


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_quadrature_matches_closed_form(kind):
    for k in range(17):
        assert quad_coefficient(kind, k) == pytest.approx(
            fourier_coefficient(kind, k), abs=1e-8
        )


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_sine_coefficients_vanish(kind):
    assert quad_b_coefficient(kind, 0) == 0.0
    for k in range(1, 17):
        assert abs(quad_b_coefficient(kind, k)) < 1e-10


def test_quadrature_carrier_invariance():
    for kind in (FULL, HALF):
        for k in (0, 1, 2, 4, 8, 64):
            a = quad_coefficient(kind, k, fc=1.0)
            b = quad_coefficient(kind, k, fc=915e6)
            assert abs(a - b) < 1e-12


def test_quadrature_panel_doubling_converged():
    for kind in (FULL, HALF):
        for k in (0, 1, 2, 5, 16, 64):
            a = quad_coefficient(kind, k, refine=1)
            b = quad_coefficient(kind, k, refine=2)
            assert abs(a - b) < 1e-10


def test_quadrature_input_validation():
    with pytest.raises(ValueError):
        quad_coefficient(FULL, -1)
    with pytest.raises(ValueError):
        quad_coefficient(FULL, 2, fc=0.0)
    with pytest.raises(ValueError):
        quad_coefficient(FULL, 2, refine=0)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    ks=arrays(np.int64, array_shapes(max_dims=2, max_side=4), elements=st.integers(0, 600)),
    fc=st.one_of(
        st.just(1.0),
        st.floats(min_value=13.553e6, max_value=13.567e6),  # ISM band around 13.56 MHz
        st.floats(min_value=902e6, max_value=928e6),  # ISM band around 915 MHz
    ),
)
@example(kind=FULL, ks=np.arange(592, 601), fc=1.0)
def test_array_harmonics_match_closed_form_and_scalar_calls(kind, ks, fc):
    # the array call sizes one node set by max(ks); each scalar call sizes its
    # own, so the two agree to roundoff, not bit for bit
    a = quad_coefficient(kind, ks, fc)
    b = quad_b_coefficient(kind, ks, fc)
    assert a.shape == ks.shape and b.shape == ks.shape
    closed = np.array([fourier_coefficient(kind, int(k)) for k in ks.flat]).reshape(ks.shape)
    assert np.max(np.abs(a - closed)) <= 1e-12
    assert np.max(np.abs(b)) <= 1e-12
    for k, a_k, b_k in zip(ks.flat, a.flat, b.flat):
        scalar_a = quad_coefficient(kind, int(k), fc)
        scalar_b = quad_b_coefficient(kind, int(k), fc)
        assert type(scalar_a) is float and type(scalar_b) is float
        assert abs(scalar_a - a_k) <= 1e-14
        assert abs(scalar_b - b_k) <= 1e-14


@pytest.mark.parametrize("quad", [quad_coefficient, quad_b_coefficient])
@pytest.mark.parametrize(
    "ks", [np.array([3, -1, 5]), np.array([1.0, 2.0]), np.array([], dtype=np.int64)]
)
def test_quadrature_rejects_negative_float_or_empty_harmonics(quad, ks):
    with pytest.raises(ValueError):
        quad(FULL, ks)


@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("fc", [1.0, 13.56e6])
@pytest.mark.parametrize("refine", [1, 2])
def test_projection_over_0_to_top_indexes_bitwise_to_direct_calls(kind, fc, refine):
    # the node set and the angle-addition split depend on the harmonics only
    # through the largest, so one projection over 0..top serves every call
    # whose largest harmonic is top, bit for bit
    top = 64
    every = quad_projection(kind, np.arange(top + 1), fc, refine)
    assert every.imag[0] == 0.0  # b_0 is 0 by definition
    for ks in (np.array([0, 1, 2, 5, 16, 64]), np.array([[64, 3], [0, 7]]), np.arange(top + 1)):
        direct = quad_projection(kind, ks, fc, refine)
        assert direct.shape == ks.shape
        assert direct.tobytes() == every[ks].tobytes()
        assert quad_coefficient(kind, ks, fc, refine).tobytes() == every[ks].real.tobytes()
        assert quad_b_coefficient(kind, ks, fc, refine).tobytes() == every[ks].imag.tobytes()
    scalar = quad_projection(kind, top, fc, refine)
    assert type(scalar) is complex and scalar == every[top]


def test_quadrature_memory_does_not_grow_with_harmonics_times_nodes():
    # 2001 harmonics on 128k nodes: without node blocks the working arrays
    # grow with harmonics x nodes (over 100 MB here); blocks keep a few MB
    tracemalloc.start()
    try:
        quad_coefficient(FULL, np.arange(2001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("fc", [1e308, 1e-310, 5e-324, math.nan])
def test_quadrature_rejects_carriers_it_cannot_resolve(fc):
    # 2 pi fc or 1/fc overflows: the integrand would be nan and drop out
    for call in (
        lambda: quad_coefficient(FULL, 0, fc=fc),
        lambda: quad_b_coefficient(HALF, 2, fc=fc),
        lambda: quad_multisine_a0(FULL, fc, 0.0),
    ):
        with pytest.raises(ValueError, match="fc"):
            call()


def test_quadrature_rejects_overflowing_harmonic_angle():
    fc = 1e306
    assert math.isfinite(quad_coefficient(FULL, 2, fc=fc))
    with pytest.raises(ValueError, match="fc"):
        quad_coefficient(FULL, 100, fc=fc)
    with pytest.raises(ValueError, match="df"):
        quad_multisine_a0(FULL, 1.0, 1e308)


def test_multisine_quadrature_matches_closed_form():
    fc = 915e6
    for kind in (FULL, HALF):
        for ratio in (0.01, 0.1, 0.5):
            df = ratio * fc
            assert quad_multisine_a0(kind, fc, df) == pytest.approx(
                multisine_a0(kind, fc, df), abs=1e-8
            )


def test_multisine_quadrature_small_spacing_limit():
    fc = 915e6
    assert quad_multisine_a0(FULL, fc, fc * 1e-4) == pytest.approx(4.0 / math.pi, abs=1e-4)


def test_multisine_quadrature_full_half_factor():
    fc, df = 915e6, 91.5e6
    got = quad_multisine_a0(FULL, fc, df) / quad_multisine_a0(HALF, fc, df)
    expected = 2.0 - (df / fc) * math.sin(0.25 * math.pi * df / fc)
    assert got == pytest.approx(expected, abs=1e-8)
    assert got == pytest.approx(1.99215, abs=1e-5)


def test_array_multisine_quadrature_is_bitwise_its_scalar_calls(monkeypatch):
    fc = 13.56e6
    # df = 0, spacings up to fc on the carrier's breakpoints, and two past fc
    # that each add their own envelope zeros
    dfs = np.array([[0.0, 0.01 * fc, 0.5 * fc], [fc, 2.5 * fc, 3.0 * fc]])
    node_sets = []
    node_set = rectenna.oracle._node_set
    monkeypatch.setattr(
        rectenna.oracle, "_node_set", lambda *args: node_sets.append(1) or node_set(*args)
    )
    for kind in (FULL, HALF):
        for refine in (1, 2):
            del node_sets[:]
            got = quad_multisine_a0(kind, fc, dfs, refine)
            assert got.shape == dfs.shape
            assert len(node_sets) == 3
            want = [quad_multisine_a0(kind, fc, df, refine) for df in dfs.ravel().tolist()]
            assert got.tobytes() == np.array(want).reshape(dfs.shape).tobytes()
    a0 = quad_multisine_a0(HALF, fc, np.array(0.3 * fc))
    assert type(a0) is float and a0 == quad_multisine_a0(HALF, fc, 0.3 * fc)


@pytest.mark.parametrize(
    "bad, message",
    [
        (-1.0, "df must be >= 0, got -1.0"),
        (-math.inf, "df must be >= 0, got -inf"),
        (math.nan, "df = nan is out of the quadrature's range: pi*df is not finite"),
        (math.inf, "df = inf is out of the quadrature's range: pi*df is not finite"),
    ],
)
def test_multisine_quadrature_refuses_any_bad_spacing_with_the_scalar_message(bad, message):
    for df in (bad, np.array([0.5, bad, 0.25]), np.array([[0.0], [bad]])):
        with pytest.raises(ValueError) as refused:
            quad_multisine_a0(FULL, 1.0, df)
        assert str(refused.value) == message


def test_multisine_quadrature_panel_doubling():
    fc, df = 915e6, 91.5e6
    a = quad_multisine_a0(HALF, fc, df, refine=1)
    b = quad_multisine_a0(HALF, fc, df, refine=2)
    assert abs(a - b) < 1e-10


def test_sample_stats_cosine():
    stats = sample_stats(lambda t: np.cos(2 * np.pi * t), 1.0, 4096)
    assert abs(stats.mean) < 1e-12
    assert stats.max == pytest.approx(1.0, abs=1e-12)
    assert stats.min == pytest.approx(-1.0, abs=1e-8)
    assert stats.peak_to_peak == stats.max - stats.min


def test_sample_stats_constant_scalar_function():
    stats = sample_stats(lambda t: 3, 2.0, 16)
    assert stats.mean == 3.0
    assert stats.max == 3.0
    assert stats.min == 3.0
    assert stats.peak_to_peak == 0.0


def test_sample_stats_invariants():
    stats = sample_stats(lambda t: np.sin(2 * np.pi * t) + 0.25, 1.0, 512)
    assert stats.min <= stats.mean <= stats.max
    assert stats.peak_to_peak >= 0.0


def test_sample_stats_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_stats(lambda t: t, 1.0, 1)
    with pytest.raises(ValueError):
        sample_stats(lambda t: t, 0.0, 16)
    # a non-finite period would sample nan times and return all-nan stats
    for period in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="period"):
            sample_stats(lambda t: t, period, 16)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_single_harmonic_mean_vanishes(k):
    stats = sample_stats(lambda t: np.cos(2 * np.pi * k * t), 1.0, 4 * k * 16)
    assert abs(stats.mean) < 1e-12


def test_sample_stats_unfiltered_output_extrema():
    fc = 915e6
    filt = RcFilter(2.0, 0.0)
    base = build_series(FULL, 256, scale=amplification_factor(filt, fc) * 1.0, fc=fc)
    fs = filtered_series(base, filt)
    stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, 2 ** 16)
    peak = 2.0 * math.sqrt(2.0)
    assert stats.max == pytest.approx(peak, abs=4.0 / (math.pi * 256) * peak)
    assert stats.mean == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-9)


@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("fc_tau", [1e-3, 0.05, 1.0, 30.0])
def test_steady_state_solves_the_filter_equation(kind, fc_tau):
    # tau v' + v = R S g(cos(2 pi fc t)) by central differences away from the
    # kinks, and v repeats after one carrier period
    resistance, scale, fc = 2.0, 1.3, 13.56e6
    tau = fc_tau / fc
    period = 1.0 / fc
    phases = np.array([0.03, 0.11, 0.2, 0.31, 0.47, 0.62, 0.7, 0.88])
    ts = phases * period
    dt = 1e-6 * min(period, tau)
    v = steady_state(kind, resistance, scale, fc, tau, ts)
    slope = (
        steady_state(kind, resistance, scale, fc, tau, ts + dt)
        - steady_state(kind, resistance, scale, fc, tau, ts - dt)
    ) / (2.0 * dt)
    drive = resistance * scale * rectify(kind, np.cos(2.0 * math.pi * phases))
    assert tau * slope + v == pytest.approx(drive, rel=0, abs=1e-6 * resistance * scale)
    later = steady_state(kind, resistance, scale, fc, tau, ts + 7.0 * period)
    assert later == pytest.approx(v, rel=0, abs=1e-12 * resistance * scale)
    # the DC level is R S mean(g): 2/pi full wave, 1/pi half wave
    mean = sample_stats(
        lambda t: steady_state(kind, resistance, scale, fc, tau, t), period, 4096
    ).mean
    dc = (2.0 if kind is FULL else 1.0) / math.pi * resistance * scale
    assert mean == pytest.approx(dc, rel=1e-9)


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_steady_state_at_zero_tau_is_the_rectified_drive(kind):
    ts = np.linspace(-1e-7, 1e-7, 101)
    v = steady_state(kind, 2.0, 0.7, 915e6, 0.0, ts)
    phase = np.remainder(915e6 * ts, 1.0)
    assert np.array_equal(v, 1.4 * rectify(kind, np.cos(2.0 * math.pi * phase)))


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1.0, 1e6, 1e-9),
        (2.0, -1.0, 1e6, 1e-9),
        (2.0, 1.0, math.nan, 1e-9),
        (2.0, 1.0, 1e6, -1e-9),
        (2.0, 1.0, 1e300, 1e300),  # fc tau overflows
    ],
)
def test_steady_state_rejects_out_of_range_input(args):
    with pytest.raises(ValueError):
        steady_state(FULL, *args, 0.0)


@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize("tau", [0.0, 1e-9])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.array([0.0, math.nan, 1e-9])])
def test_steady_state_refuses_non_finite_times(kind, tau, t):
    # as eval_filtered does: a nan phase would come back as a nan voltage
    with pytest.raises(ValueError, match="finite times"):
        steady_state(kind, 2.0, 1.0, 1e6, tau, t)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    resistance=st.floats(min_value=0.5, max_value=20.0),
    capacitance=st.one_of(st.just(0.0), st.floats(min_value=1e-14, max_value=1e-8)),
    amplitude=st.floats(min_value=0.2, max_value=3.0),
    log_fc=st.floats(min_value=6.0, max_value=9.5),
    truncation=st.sampled_from([1, 2, 17, 64, 256, 600]),
    periods=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=64),
)
@example(  # the full wave's kinks at C = 0, where the error is the whole bound
    kind=FULL, resistance=2.0, capacitance=0.0, amplitude=1.0, log_fc=math.log10(13.56e6),
    truncation=256, periods=[0.25, -0.25, 0.0],
)
@example(
    kind=HALF, resistance=2.0, capacitance=1e-12, amplitude=1.0, log_fc=math.log10(915e6),
    truncation=256, periods=[0.25, 0.5, 0.7501],
)
def test_filtered_series_is_within_the_truncation_tail_of_the_steady_state(
    kind, resistance, capacitance, amplitude, log_fc, truncation, periods
):
    # the series oscillates about the time-domain solution by at most the
    # dropped coefficients: |H| <= R, so |error| <= S R sum_{k > K} |a_k|
    fc = 10.0**log_fc
    filt = RcFilter(resistance, capacitance)
    scale = amplification_factor(filt, fc) * amplitude
    fs = filtered_series(build_series(kind, truncation, scale=scale, fc=fc), filt)
    ts = np.array(periods) / fc
    exact = steady_state(kind, resistance, scale, fc, filt.tau, ts)
    err = float(np.max(np.abs(eval_filtered(fs, ts) - exact)))
    # the bound is for exact arithmetic; 1e-13 S R covers the evaluators' roundoff
    bound = scale * resistance * coefficient_tail(kind, truncation)
    assert err <= bound + 1e-13 * scale * resistance


def imported_names(module):
    """Every module or name a module's import statements mention."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".") if part}


def test_oracle_and_engine_do_not_import_each_other():
    # the oracle is the independent check of the closed forms and the engine
    assert imported_names(rectenna.oracle).isdisjoint({"rcfilter", "design"})
    for engine in (rectenna.rcfilter, rectenna.design):
        assert "oracle" not in imported_names(engine), engine.__name__


PACKAGE_EXPORTS = {
    "DEFAULT_TRUNCATION", "DesignResult", "FilteredSeries", "FourierSeries", "RcFilter",
    "RectifierKind", "SampleStats", "amplification_factor", "analytic_ripple", "build_series",
    "coefficients", "dc_limits", "dc_voltage", "eval_filtered", "eval_series", "filtered_series",
    "fourier_coefficient", "make_grid", "max_ripple", "multisine_a0", "optimize_capacitance",
    "period_extrema", "quad_b_coefficient", "quad_coefficient", "quad_multisine_a0",
    "rectified_reference", "rectify", "ripple_peak", "sample_stats", "sampled_ripple",
    "steady_state", "sweep_cutoff", "time_trace",
}


def test_package_exports_resolve_once_each():
    assert len(set(rectenna.__all__)) == len(rectenna.__all__)
    assert set(rectenna.__all__) == PACKAGE_EXPORTS
    for name in rectenna.__all__:
        assert hasattr(rectenna, name), name
    # the source enters the model only as the series scale and, for two
    # tones, through multisine_a0; there is no source-waveform module
    assert importlib.util.find_spec("rectenna.waveforms") is None
