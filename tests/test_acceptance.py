"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; tolerances and runtime budgets are asserted inside the tests.
"""

import math
import time

import numpy as np
import pytest

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
    fourier_coefficient,
    max_ripple,
    multisine_a0,
    optimize_capacitance,
    quad_b_coefficient,
    quad_coefficient,
    quad_multisine_a0,
    rectify,
    sample_stats,
    sampled_ripple,
    sweep_cutoff,
    time_trace,
)

FULL = RectifierKind.FULL_WAVE
HALF = RectifierKind.HALF_WAVE
FC = 915e6
RL = 2.0
AMP = 1.0


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_coefficient_oracle_equivalence():
    start = time.perf_counter()
    worst_a = 0.0
    worst_b = 0.0
    for kind in (FULL, HALF):
        for k in range(65):
            worst_a = max(
                worst_a, abs(fourier_coefficient(kind, k) - quad_coefficient(kind, k))
            )
            worst_b = max(worst_b, abs(quad_b_coefficient(kind, k)))
    elapsed = time.perf_counter() - start
    assert worst_a < 1e-8
    assert worst_b < 1e-9
    assert elapsed < 5.0
    report(1, f"a_k closed-vs-quadrature max|diff|={worst_a:.2e}, "
              f"max|b_k|={worst_b:.2e}, {elapsed:.2f}s")


def test_criterion_2_dc_formula_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for i in range(20):
        resistance = float(rng.uniform(0.5, 50.0))
        capacitance = float(10.0 ** rng.uniform(-13.0, -9.0))
        fc = float(rng.uniform(1e8, 2e9))
        amplitude = float(rng.uniform(0.1, 3.0))
        kind = FULL if i % 2 == 0 else HALF
        filt = RcFilter(resistance, capacitance)
        scale = amplification_factor(filt, fc) * amplitude
        fs = filtered_series(build_series(kind, 256, scale=scale, fc=fc), filt)
        stats = sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, 8192)
        dc = dc_voltage(kind, filt, amplitude, fc)
        worst = max(worst, abs(stats.mean - dc) / abs(dc))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    report(2, f"dc vs sampled mean over 20 random filters, "
              f"max rel err={worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_limit_cases():
    filt0 = RcFilter(RL, 0.0)
    high = dc_limits(FULL, RL, AMP)[1]
    dc0 = dc_voltage(FULL, filt0, AMP, FC)
    assert dc0 == high  # bitwise: zero-tau formula vs limit expression
    assert high == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
    assert high == pytest.approx(1.80063, abs=1e-5)

    huge = RcFilter(RL, 1e-3)
    assert dc_voltage(FULL, huge, AMP, FC) < 1e-6 * dc0

    for capacitance in (0.0, 1e-12, 3.3e-11, 1e-9, 1e-3):
        filt = RcFilter(RL, capacitance)
        assert dc_voltage(FULL, filt, AMP, FC) == 2.0 * dc_voltage(HALF, filt, AMP, FC)
    report(3, f"tau=0 DC={dc0:.6f} V (exact limit), tau->inf suppressed below 1e-6, "
              f"full/half ratio bitwise 2")


def test_criterion_4_trace_properties():
    start = time.perf_counter()
    ts = np.arange(4096) * (1.0 / FC / 4096)
    low = np.array([v for _, v in time_trace(FULL, RcFilter.from_cutoff(RL, 1e9), AMP, FC, ts)])
    high = np.array([v for _, v in time_trace(FULL, RcFilter.from_cutoff(RL, 5e9), AMP, FC, ts)])
    assert high.mean() > low.mean()
    assert np.ptp(high) > np.ptp(low)

    unfiltered = np.array([v for _, v in time_trace(FULL, RcFilter(RL, 0.0), AMP, FC, ts)])
    peak = AMP * RL ** 1.5
    tolerance = 4.0 / (math.pi * 256) * peak
    assert abs(float(unfiltered.max()) - peak) <= tolerance
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"5 GHz vs 1 GHz cut-off: mean {high.mean():.4f}>{low.mean():.4f} V, "
              f"ptp {np.ptp(high):.4f}>{np.ptp(low):.4f} V; tau=0 max within "
              f"{tolerance:.3e} of {peak:.5f} V; {elapsed:.2f}s")


def test_criterion_5_dc_vs_cutoff_curve():
    start = time.perf_counter()
    kwargs = dict(cutoff_min=1e8, cutoff_max=1e11, n_points=50, spacing="log",
                  samples=1024)
    v = sweep_cutoff(FULL, RL, AMP, FC, **kwargs)[:, 3]
    assert np.all(np.diff(v) > 0)
    high = dc_limits(FULL, RL, AMP)[1]
    assert v[-1] > 0.99 * high

    v_slow = sweep_cutoff(FULL, RL, AMP, FC / 2, **kwargs)[:, 3]
    assert np.all(v_slow / high > v / high)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"V_DC strictly increasing over 1e8..1e11 Hz, top point at "
              f"{v[-1] / high:.4%} of the limit, halved carrier pointwise above; "
              f"{elapsed:.2f}s")


def test_criterion_6_multisine_two_tone():
    worst = 0.0
    for kind in (FULL, HALF):
        for ratio in (0.01, 0.05, 0.1, 0.5):
            df = ratio * FC
            worst = max(
                worst, abs(multisine_a0(kind, FC, df) - quad_multisine_a0(kind, FC, df))
            )
    assert worst < 1e-8

    df_small = FC * 1e-4
    assert abs(multisine_a0(FULL, FC, df_small) - 4.0 / math.pi) < 1e-4
    assert abs(multisine_a0(HALF, FC, df_small) - 2.0 / math.pi) < 1e-4

    worst_factor = 0.0
    for ratio in (0.01, 0.05, 0.1, 0.5):
        df = ratio * FC
        got = multisine_a0(FULL, FC, df) / multisine_a0(HALF, FC, df)
        expected = 2.0 - (df / FC) * math.sin(0.25 * math.pi * df / FC)
        worst_factor = max(worst_factor, abs(got - expected))
    assert worst_factor < 1e-8
    report(6, f"two-tone a0 closed-vs-quadrature max|diff|={worst:.2e}, small-spacing "
              f"limit within 1e-4, full/half factor within {worst_factor:.2e}")


def test_criterion_7_design_layer():
    start = time.perf_counter()
    unconstrained = optimize_capacitance(
        FULL, RL, AMP, FC, max_ripple(FULL, AMP, RL, 256) + 1.0, samples=2048
    )
    assert unconstrained.capacitance == 0.0
    assert unconstrained.v_dc == dc_limits(FULL, RL, AMP)[1]
    assert unconstrained.feasible

    budget = 0.1
    res = optimize_capacitance(FULL, RL, AMP, FC, budget, samples=2048)
    assert res.feasible
    assert abs(res.ripple - budget) <= 1e-6 * budget
    again = sampled_ripple(FULL, RcFilter(RL, res.capacitance), AMP, FC, 256, 2048)
    assert again == res.ripple

    budgets = np.geomspace(1e-3, 2.0, 10)
    results = [optimize_capacitance(FULL, RL, AMP, FC, float(b), samples=2048)
               for b in budgets]
    v = np.array([r.v_dc for r in results])
    assert np.all(np.diff(v) >= 0)
    assert all(r.feasible for r in results)
    assert all(r.ripple <= b * (1 + 1e-6) for r, b in zip(results, budgets))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"boundary ripple {res.ripple:.8f} V for budget {budget} V, frontier "
              f"monotone over 10 budgets, {elapsed:.2f}s")


def test_criterion_8_series_convergence():
    ts = np.arange(1000) * (1.0 / FC / 1000)
    reference = rectify(FULL, np.cos(2 * np.pi * FC * ts))
    sups = []
    for truncation in (64, 256, 1024):
        series = build_series(FULL, truncation, scale=1.0, fc=FC)
        sup = float(np.max(np.abs(eval_series(series, ts) - reference)))
        assert sup <= 4.0 / (math.pi * truncation)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    report(8, "sup-norm error within 4/(pi K) for K=64/256/1024: "
              + ", ".join(f"{s:.2e}" for s in sups))
