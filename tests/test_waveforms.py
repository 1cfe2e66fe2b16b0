import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectenna import (
    MultisineSpec,
    ToneSpec,
    eval_multisine,
    eval_multisine_envelope,
    eval_sinewave,
)


@pytest.mark.parametrize(
    "amplitude,fc",
    [(-1.0, 915e6), (0.0, 915e6), (1.0, 0.0), (1.0, -5.0)],
)
def test_tone_spec_rejects_bad_parameters(amplitude, fc):
    with pytest.raises(ValueError):
        ToneSpec(amplitude, fc)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(amplitude=1.0, carrier_fc=915e6, tone_count=0, tone_spacing=1e6),
        dict(amplitude=1.0, carrier_fc=915e6, tone_count=2, tone_spacing=-1.0),
        dict(amplitude=0.0, carrier_fc=915e6, tone_count=2, tone_spacing=1e6),
        # carrier must exceed tone_count * tone_spacing
        dict(amplitude=1.0, carrier_fc=2e6, tone_count=2, tone_spacing=1e6),
    ],
)
def test_multisine_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        MultisineSpec(**kwargs)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(amplitude=ANY_FLOAT, fc=ANY_FLOAT)
def test_tone_spec_rejects_or_holds_finite_parameters(amplitude, fc):
    try:
        spec = ToneSpec(amplitude, fc)
    except ValueError:
        return
    assert math.isfinite(spec.amplitude) and math.isfinite(spec.carrier_fc)


@settings(max_examples=200, deadline=None)
@given(amplitude=ANY_FLOAT, fc=ANY_FLOAT, tone_count=st.integers(0, 8), spacing=ANY_FLOAT)
def test_multisine_spec_rejects_or_holds_finite_parameters(amplitude, fc, tone_count, spacing):
    try:
        spec = MultisineSpec(amplitude, fc, tone_count, spacing)
    except ValueError:
        return
    assert all(map(math.isfinite, (spec.amplitude, spec.carrier_fc, spec.tone_spacing)))


def test_sinewave_values():
    spec = ToneSpec(1.0, 915e6)
    assert eval_sinewave(spec, 0.0) == 1.0
    assert abs(eval_sinewave(spec, 1.0 / (4 * 915e6))) < 1e-12
    spec2 = ToneSpec(2.0, 1e9)
    assert eval_sinewave(spec2, 1.0 / 2e9) == pytest.approx(-2.0, rel=1e-12)


def test_sinewave_gain_and_phase():
    spec = ToneSpec(1.5, 1e9)
    t = 1.7e-10
    expected = 0.7 * 1.5 * math.cos(2 * math.pi * 1e9 * t + 0.3)
    assert eval_sinewave(spec, t, gain=0.7, phase=0.3) == pytest.approx(expected, rel=1e-14)


def test_sinewave_vectorized_matches_scalar():
    spec = ToneSpec(1.0, 915e6)
    ts = np.linspace(0.0, 3e-9, 17)
    vec = eval_sinewave(spec, ts)
    assert vec.shape == ts.shape
    assert vec == pytest.approx([eval_sinewave(spec, t) for t in ts])


def test_envelope_removable_singularity_at_origin():
    spec = MultisineSpec(1.0, 915e6, 4, 1e6)
    assert eval_multisine_envelope(spec, 0.0) == 4.0


def test_envelope_single_tone_is_constant():
    spec = MultisineSpec(1.0, 915e6, 1, 3e6)
    for t in (0.0, 1.3e-7, 5e-7, 1.0 / 3e6):
        assert eval_multisine_envelope(spec, t) == pytest.approx(1.0, rel=1e-12)


def test_envelope_two_tone_value():
    spec = MultisineSpec(1.0, 915e6, 2, 1e6)
    got = eval_multisine_envelope(spec, 2.5e-7)
    assert got == pytest.approx(2 * math.cos(math.pi * 0.25), rel=1e-12)
    assert got == pytest.approx(1.41421, abs=1e-5)


def test_envelope_magnitude_against_two_tone_quadrature_pair():
    # |U| must equal hypot of the in-phase and quadrature two-tone sums
    spec = MultisineSpec(1.3, 915e6, 2, 1e6)
    f1 = spec.carrier_fc - spec.tone_spacing / 2
    f2 = spec.carrier_fc + spec.tone_spacing / 2
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 2e-6, 50):
        inphase = spec.amplitude * (math.cos(2 * math.pi * f1 * t) + math.cos(2 * math.pi * f2 * t))
        quadrature = spec.amplitude * (
            math.sin(2 * math.pi * f1 * t) + math.sin(2 * math.pi * f2 * t)
        )
        expected = math.hypot(inphase, quadrature)
        assert abs(eval_multisine_envelope(spec, t)) == pytest.approx(expected, abs=1e-9)


def test_envelope_periodicity():
    spec = MultisineSpec(1.0, 915e6, 4, 1e6)
    period = spec.envelope_period
    assert period == 2.0 / spec.tone_spacing
    rng = np.random.default_rng(11)
    scale = spec.tone_count * spec.amplitude
    for t in rng.uniform(0.0, 1.0 / spec.tone_spacing, 100):
        assert abs(eval_multisine_envelope(spec, t) - eval_multisine_envelope(spec, t + period)) \
            <= 1e-9 * scale


def test_envelope_bounded_with_peak_at_origin():
    spec = MultisineSpec(0.5, 915e6, 5, 2e6)
    bound = spec.tone_count * spec.amplitude
    ts = np.linspace(0.0, spec.envelope_period, 20001)
    vals = eval_multisine_envelope(spec, ts)
    assert np.max(np.abs(vals)) <= bound * (1 + 1e-12)
    assert eval_multisine_envelope(spec, 0.0) == bound


@settings(max_examples=60, deadline=None)
@given(
    tone_count=st.integers(min_value=1, max_value=8),
    amplitude=st.floats(min_value=0.1, max_value=10.0),
    spacing=st.floats(min_value=0.0, max_value=1e6),
    t=st.floats(min_value=-1e-3, max_value=1e-3),
)
def test_envelope_bound_property(tone_count, amplitude, spacing, t):
    spec = MultisineSpec(amplitude, 1e9, tone_count, spacing)
    val = eval_multisine_envelope(spec, t)
    assert abs(val) <= tone_count * amplitude * (1 + 1e-9)


def test_envelope_continuous_across_singularities():
    # shrink toward the singular points only down to where sin(pi df t) is
    # still resolved well above floating noise (~eps_mach / delta)
    spec = MultisineSpec(1.0, 915e6, 3, 1e6)
    scale = spec.tone_count * spec.amplitude
    for m in (1, 2, 3):
        t0 = m / spec.tone_spacing
        center = eval_multisine_envelope(spec, t0)
        diffs = []
        for j in range(3, 6):
            eps = 10.0 ** (-j) / spec.tone_spacing
            diffs.append(
                max(
                    abs(eval_multisine_envelope(spec, t0 + eps) - center),
                    abs(eval_multisine_envelope(spec, t0 - eps) - center),
                )
            )
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-6 * scale
        # close enough to take the guarded continuation branch
        assert abs(eval_multisine_envelope(spec, t0 + 1e-19) - center) < 1e-9 * scale


def test_envelope_zero_spacing_short_circuits():
    spec = MultisineSpec(1.0, 915e6, 2, 0.0)
    for t in (0.0, 1e-7, 3.7e-4):
        assert eval_multisine_envelope(spec, t) == 2.0


def test_multisine_zero_spacing_at_origin():
    spec = MultisineSpec(1.0, 915e6, 2, 0.0)
    assert eval_multisine(spec, 0.0) == 2.0


def test_multisine_single_tone_equals_sinewave():
    multi = MultisineSpec(1.2, 915e6, 1, 5e6)
    tone = ToneSpec(1.2, 915e6)
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 1e-6, 10):
        assert eval_multisine(multi, t) == pytest.approx(eval_sinewave(tone, t), rel=1e-12)


def test_multisine_matches_explicit_two_tone_sum():
    spec = MultisineSpec(1.0, 915e6, 2, 1e6)
    f1 = spec.carrier_fc - spec.tone_spacing / 2
    f2 = spec.carrier_fc + spec.tone_spacing / 2
    rng = np.random.default_rng(5)
    ts = np.concatenate([[2.5e-7], rng.uniform(0.0, 2e-6, 40)])
    for t in ts:
        expected = math.cos(2 * math.pi * f1 * t) + math.cos(2 * math.pi * f2 * t)
        assert eval_multisine(spec, t) == pytest.approx(expected, abs=2e-9)


def test_multisine_gain_and_phase():
    spec = MultisineSpec(1.0, 915e6, 2, 1e6)
    t = 3.1e-8
    env = eval_multisine_envelope(spec, t)
    expected = 0.4 * env * math.cos(2 * math.pi * 915e6 * t + 1.1)
    assert eval_multisine(spec, t, gain=0.4, phase=1.1) == pytest.approx(expected, rel=1e-12)
