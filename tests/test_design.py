import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectenna.design
from rectenna import (
    RcFilter,
    RectifierKind,
    amplification_factor,
    analytic_ripple,
    build_series,
    dc_limits,
    dc_voltage,
    eval_filtered,
    eval_series,
    filtered_series,
    make_grid,
    max_ripple,
    optimize_capacitance,
    period_extrema,
    rectified_reference,
    ripple_peak,
    sampled_ripple,
    sweep_cutoff,
    time_trace,
)

FULL = RectifierKind.FULL_WAVE
HALF = RectifierKind.HALF_WAVE
FC = 915e6
RL = 2.0


def test_sweep_reproduces_saturation():
    rows = sweep_cutoff(FULL, RL, 1.0, FC, 1e8, 1e11, 50, "log", samples=1024)
    assert len(rows) == 50
    v = np.array([r.v_dc for r in rows])
    assert np.all(np.diff(v) > 0)
    high = dc_limits(FULL, RL, 1.0)[1]
    assert v[-1] > 0.99 * high
    assert all(r.cutoff <= s.cutoff for r, s in zip(rows, rows[1:]))


def test_sweep_half_wave_is_exactly_half():
    kwargs = dict(samples=512)
    full_rows = sweep_cutoff(FULL, RL, 1.0, FC, 1e8, 1e10, 8, "log", **kwargs)
    half_rows = sweep_cutoff(HALF, RL, 1.0, FC, 1e8, 1e10, 8, "log", **kwargs)
    for fr, hr in zip(full_rows, half_rows):
        assert hr.v_dc == 0.5 * fr.v_dc


def test_sweep_rows_respect_bounds():
    rows = sweep_cutoff(FULL, RL, 1.0, FC, 1e8, 1e10, 10, "log", samples=512)
    low, high = dc_limits(FULL, RL, 1.0)
    for row in rows:
        assert low < row.v_dc < high
        assert row.ripple_sampled >= 0.0
        assert row.tau == pytest.approx(1.0 / (2 * math.pi * row.cutoff), rel=1e-12)
        assert row.capacitance == pytest.approx(row.tau / RL, rel=1e-12)


def test_sweep_two_point_case():
    rows = sweep_cutoff(FULL, RL, 1.0, FC, 5e8, 1e9, 2, "linear", samples=512)
    assert len(rows) == 2
    assert rows[0].v_dc < rows[1].v_dc


@pytest.mark.parametrize(
    "cutoff_min,cutoff_max,n_points",
    [
        (0.0, 1e9, 10),
        (1e9, 1e8, 10),
        (1e8, 1e9, 1),
        (-1e8, 1e9, 5),
        (math.nan, 1e9, 5),
        (1e8, math.nan, 5),
        (1e8, math.inf, 5),
    ],
)
def test_sweep_rejects_bad_ranges(cutoff_min, cutoff_max, n_points):
    with pytest.raises(ValueError):
        sweep_cutoff(FULL, RL, 1.0, FC, cutoff_min, cutoff_max, n_points)


def test_sweep_rejects_bad_spacing():
    with pytest.raises(ValueError):
        sweep_cutoff(FULL, RL, 1.0, FC, 1e8, 1e9, 4, "cubic")


def test_sweep_smaller_carrier_converges_faster():
    grid = dict(cutoff_min=1e8, cutoff_max=1e11, n_points=12, spacing="log", samples=512)
    fast = sweep_cutoff(FULL, RL, 1.0, FC, **grid)
    slow = sweep_cutoff(FULL, RL, 1.0, FC / 2, **grid)
    high = dc_limits(FULL, RL, 1.0)[1]
    for f_row, s_row in zip(fast, slow):
        assert s_row.v_dc / high > f_row.v_dc / high


def per_point_rows(kind, resistance, amplitude, fc, cutoffs, truncation, samples):
    """The sweep rows as the per-point functions give them, one cut-off at a time."""
    rows = []
    for cutoff in cutoffs:
        filt = RcFilter.from_cutoff(resistance, cutoff)
        rows.append((
            cutoff,
            filt.tau,
            filt.capacitance,
            dc_voltage(kind, filt, amplitude, fc),
            analytic_ripple(kind, filt, amplitude, fc, truncation),
            sampled_ripple(kind, filt, amplitude, fc, truncation, samples),
        ))
    return np.array(rows)


def sweep_array(rows):
    return np.array([
        (r.cutoff, r.tau, r.capacitance, r.v_dc, r.ripple_analytic, r.ripple_sampled)
        for r in rows
    ])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    samples=st.integers(1, 150).map(lambda m: 2 * m),
    truncation_ratio=st.floats(0.0, 2.5),
    refined=st.booleans(),
    carrier_offset=st.floats(0.01, 2.0),
    resistance=st.floats(0.5, 8.0),
    amplitude=st.floats(0.1, 3.0),
    start_ratio=st.floats(1e-2, 1e2),
    decades=st.floats(0.1, 4.0),
    n_points=st.integers(2, 30),
    spacing=st.sampled_from(["linear", "log"]),
)
@example(kind=HALF, samples=254, truncation_ratio=2.5, refined=True, carrier_offset=0.5,
         resistance=2.0, amplitude=1.0, start_ratio=0.1, decades=3.0, n_points=17,
         spacing="log")
@example(kind=HALF, samples=254, truncation_ratio=2.5, refined=False, carrier_offset=0.5,
         resistance=2.0, amplitude=1.0, start_ratio=0.1, decades=3.0, n_points=17,
         spacing="log")
# two chunks of (rows, K) matrices, then a partial block of cut-offs
@example(kind=FULL, samples=254, truncation_ratio=1.0, refined=True, carrier_offset=0.5,
         resistance=2.0, amplitude=1.0, start_ratio=0.1, decades=3.0,
         n_points=2 * rectenna.design._SWEEP_CHUNK + 5, spacing="linear")
def test_blocked_sweep_is_bitwise_the_per_point_metrics(
    kind, samples, truncation_ratio, refined, carrier_offset, resistance, amplitude,
    start_ratio, decades, n_points, spacing,
):
    # carriers on both sides of fc * samples = 1e12, where sampled_ripple stops
    # sharpening its maximum; K from 1 to 2.5x the samples
    truncation = max(1, int(truncation_ratio * samples))
    fc = 1e12 / samples * 10 ** (-carrier_offset if refined else carrier_offset)
    lo = start_ratio * fc
    hi = lo * 10**decades
    rows = sweep_cutoff(
        kind, resistance, amplitude, fc, lo, hi, n_points, spacing, truncation, samples
    )
    cutoffs = make_grid(lo, hi, n_points, spacing).tolist()
    expected = per_point_rows(kind, resistance, amplitude, fc, cutoffs, truncation, samples)
    assert sweep_array(rows).tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    filtered=st.booleans(),
    log_fc=st.floats(0.0, 11.0),
    log_cutoff_ratio=st.floats(-3.0, 3.0),
    resistance=st.floats(0.5, 8.0),
    amplitude=st.floats(0.1, 3.0),
    truncation=st.integers(1, 700),
    samples=st.integers(1, 4096).map(lambda m: 2 * m),
)
# polished at n < 4K; folded at n < 2K, so unpolished; the 915 MHz default
@example(kind=HALF, filtered=True, log_fc=math.log10(13.56e6), log_cutoff_ratio=1.0,
         resistance=2.0, amplitude=1.0, truncation=700, samples=2000)
@example(kind=FULL, filtered=False, log_fc=3.0, log_cutoff_ratio=0.0,
         resistance=2.0, amplitude=1.0, truncation=700, samples=1000)
@example(kind=FULL, filtered=True, log_fc=math.log10(FC), log_cutoff_ratio=0.5,
         resistance=2.0, amplitude=1.0, truncation=256, samples=4096)
def test_sampled_ripple_is_bitwise_the_period_extrema_spread(
    kind, filtered, log_fc, log_cutoff_ratio, resistance, amplitude, truncation, samples,
):
    # the metric builds no series; it must still be the series' grid spread,
    # on both sides of the 1e-12 s polish gate and of the n < 2K fold
    fc = 10.0**log_fc
    if filtered:
        filt = RcFilter.from_cutoff(resistance, fc * 10.0**log_cutoff_ratio)
    else:
        filt = RcFilter(resistance, 0.0)
    ripple = sampled_ripple(kind, filt, amplitude, fc, truncation, samples)
    scale = amplification_factor(filt, fc) * amplitude
    fs = filtered_series(build_series(kind, truncation, scale=scale, fc=fc), filt)
    vmax, vmin = period_extrema(fs, samples)
    assert np.float64(ripple).tobytes() == np.float64(vmax - vmin).tobytes()


def test_concurrent_sweeps_match_the_single_thread_rows():
    # the period grid reuses prepared kernels; threads must never share them
    inputs = [
        lambda: sweep_array(sweep_cutoff(HALF, RL, 1.0, FC, 1e8, 1e11, 50, "log")).tobytes(),
        lambda: sweep_array(sweep_cutoff(FULL, 3.0, 0.5, 13.56e6, 1e6, 1e9, 20, "log")).tobytes(),
        lambda: repr(optimize_capacitance(HALF, RL, 1.0, 13.56e6, 0.05)),
    ]
    expected = [run() for run in inputs]
    mismatches, finished = [], []

    def worker(offset):
        for i in range(30):
            which = (i + offset) % len(inputs)
            if inputs[which]() != expected[which]:
                mismatches.append((offset, i))
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert mismatches == []


def in_fresh_thread(run):
    """``run()`` in a new thread, whose prepared kernels are all built anew."""
    results = []
    thread = threading.Thread(target=lambda: results.append(run()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return results[0]


def test_reused_kernels_carry_no_state_between_calls():
    # one thread's prepared kernels serve every call below, in turn and twice
    # over, and each value must be bitwise what fresh kernels give.  Each
    # (K, n) takes two shapes, one row and the sweep's blocks of eight, so the
    # four kept shapes hold both n of one K when the next K starts.  Half and
    # full wave alternate on each shape: a full-wave pass follows one that
    # wrote the second half period.  At K = 3000 the fold mirrors a range and
    # fills the Nyquist bin (n = 4096) or folds three ranges (n = 1024); n =
    # 1024 is polished where K <= 512
    filt = RcFilter.from_cutoff(RL, 3e9)
    calls = []
    for truncation in (1, 3, 256, 3000):
        for samples in (1024, 4096):
            for kind in (HALF, FULL):
                calls.append(lambda k=kind, K=truncation, n=samples: (
                    np.float64(sampled_ripple(k, filt, 1.0, FC, K, n)).tobytes()
                ))
                calls.append(lambda k=kind, K=truncation, n=samples: (
                    sweep_array(sweep_cutoff(k, RL, 1.0, FC, 1e8, 1e11, 16, "log", K, n)).tobytes()
                ))
    reused = [run() for run in calls + calls]
    fresh = [in_fresh_thread(run) for run in calls]
    assert reused == fresh + fresh


@pytest.mark.filterwarnings("error")
def test_blocked_sweep_takes_exact_zero_tau_rows():
    # 2 pi f_cut R overflows for the top five cut-offs, so from_cutoff gives
    # C = 0 there: the first block of eight mixes tau > 0 and tau = 0 rows,
    # and the overflow is no warning, as the result is finite
    lo, hi = 1e306, 1.7e308
    rows = sweep_cutoff(FULL, RL, 1.0, FC, lo, hi, 11, "log", 64, 256)
    assert [r.tau > 0.0 for r in rows] == [True] * 6 + [False] * 5
    cutoffs = make_grid(lo, hi, 11, "log").tolist()
    expected = per_point_rows(FULL, RL, 1.0, FC, cutoffs, 64, 256)
    assert sweep_array(rows).tobytes() == expected.tobytes()
    assert rows[-1].v_dc == dc_limits(FULL, RL, 1.0)[1]


@pytest.mark.parametrize(
    "lo,hi,message",
    [
        (1e-30, 1e-25, "cutoff 1e-30 with resistance 1e-300 underflows"),
        (1e-20, 1e-10, "capacitance must be finite and >= 0, got inf"),
    ],
)
def test_sweep_refuses_what_from_cutoff_refuses(lo, hi, message):
    # 2 pi f_cut R underflows to 0, or to a subnormal whose inverse is inf;
    # the sweep forms no filter object, but gives from_cutoff's message
    for call in (
        lambda: sweep_cutoff(FULL, 1e-300, 1.0, FC, lo, hi, 4, "log"),
        lambda: RcFilter.from_cutoff(1e-300, lo),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.filterwarnings("error")
def test_sweep_refuses_an_overflowing_table():
    # at R = 1e300 the DC level overflows to inf and the ripples to nan
    with pytest.raises(ValueError, match="^result is not finite; an input is out of range$"):
        sweep_cutoff(FULL, 1e300, 1.0, FC, 1e8, 1e9, 4, "log")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [FULL, HALF])
@pytest.mark.parametrize(
    "function", [dc_voltage, ripple_peak, analytic_ripple, sampled_ripple], ids=lambda f: f.__name__
)
def test_per_point_functions_refuse_an_overflowing_output(function, kind):
    # at R = 1e300, C = 0 the input peak is sqrt(R) and the output ~R^1.5:
    # refused before any numpy work, not returned as inf or nan after a warning
    with pytest.raises(ValueError, match="^result is not finite; an input is out of range$"):
        function(kind, RcFilter(1e300, 0.0), 1.0, FC)


def test_long_sweep_forms_its_matrices_a_chunk_at_a_time():
    # a (10000, 256) attenuation matrix alone would take 20 MB.  Measured
    # with Python 3.11, the 10,000 rows hold 2.7 MB and the sweep peaks
    # 1.0 MB above them; the bound leaves 1 MB of slack
    args = (FULL, RL, 1.0, FC, 1e6, 1e12)
    sweep_cutoff(*args, 16, "log")  # fills the caches and scratch arrays
    tracemalloc.start()
    try:
        rows = sweep_cutoff(*args, 10_000, "log")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 10_000
    assert peak - retained < 2 * 2**20


@pytest.mark.parametrize(
    "lo,hi,points,spacing",
    [
        (1.0, 1.0, 5, "linear"),
        (2.0, 1.0, 5, "log"),
        (1.0, 2.0, 1, "linear"),
        (0.0, 2.0, 5, "log"),
        (1.0, math.inf, 5, "linear"),
        (math.nan, 2.0, 5, "linear"),
        (1.0, 2.0, 5, "cubic"),
    ],
)
def test_make_grid_rejects_bad_ranges(lo, hi, points, spacing):
    with pytest.raises(ValueError):
        make_grid(lo, hi, points, spacing)


def test_make_grid_spacings():
    assert make_grid(0.0, 1.0, 5).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert make_grid(1.0, 1e3, 4, "log") == pytest.approx([1.0, 10.0, 100.0, 1e3], rel=1e-15)


def test_optimize_unconstrained_budget_keeps_zero_capacitance():
    budget = max_ripple(FULL, 1.0, RL, 256) + 1.0
    res = optimize_capacitance(FULL, RL, 1.0, FC, budget, samples=1024)
    assert res.capacitance == 0.0
    assert res.tau == 0.0
    assert res.feasible
    assert res.v_dc == dc_limits(FULL, RL, 1.0)[1]


def test_optimize_hits_budget_boundary_sampled():
    budget = 0.1
    res = optimize_capacitance(FULL, RL, 1.0, FC, budget, samples=2048)
    assert res.feasible
    assert abs(res.ripple - budget) <= 1e-6 * budget
    # the reported ripple is the re-evaluated metric at the chosen capacitance
    again = sampled_ripple(FULL, RcFilter(RL, res.capacitance), 1.0, FC, 256, 2048)
    assert again == res.ripple


def test_optimize_hits_budget_boundary_analytic():
    budget = 0.05
    res = optimize_capacitance(FULL, RL, 1.0, FC, budget, ripple_metric="analytic")
    assert res.feasible
    assert abs(res.ripple - budget) <= 1e-6 * budget
    again = analytic_ripple(FULL, RcFilter(RL, res.capacitance), 1.0, FC, 256)
    assert again == res.ripple


def test_optimize_tiny_budget_trades_dc_for_smoothness():
    res = optimize_capacitance(FULL, RL, 1.0, FC, 1e-6, samples=1024)
    high = dc_limits(FULL, RL, 1.0)[1]
    assert res.feasible
    assert 0.0 < res.v_dc < 0.05 * high


def test_optimize_monotone_frontier():
    budgets = [0.01, 0.1, 1.0]
    results = [optimize_capacitance(FULL, RL, 1.0, FC, b, samples=1024) for b in budgets]
    v = [r.v_dc for r in results]
    assert v[0] <= v[1] <= v[2]
    taus = [r.tau for r in results]
    assert taus[0] >= taus[1] >= taus[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", rectenna.design.RIPPLE_METRICS)
def test_optimize_refuses_an_overflowing_unfiltered_ripple(metric):
    # the solve would otherwise chase a nan ripple to a meaningless C
    with pytest.raises(ValueError, match="^result is not finite; an input is out of range$"):
        optimize_capacitance(FULL, 1e300, 1.0, FC, 0.1, metric)


def test_optimize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        optimize_capacitance(FULL, RL, 1.0, FC, 0.0)
    with pytest.raises(ValueError):
        optimize_capacitance(FULL, RL, 1.0, FC, 0.1, ripple_metric="rms")
    with pytest.raises(ValueError):  # below what tau <= 1e3 s can reach
        optimize_capacitance(FULL, RL, 1.0, FC, 1e-300, samples=1024)


@settings(max_examples=60, deadline=None)
@given(budget=st.floats(allow_nan=True, allow_infinity=True))
def test_optimize_rejects_or_returns_finite_design(budget):
    try:
        res = optimize_capacitance(FULL, RL, 1.0, FC, budget, samples=1024)
    except ValueError:
        return
    assert all(math.isfinite(v) for v in (res.capacitance, res.tau, res.v_dc, res.ripple))


def bisect_log_tau(ripple, budget, lo=1e-30, hi=1e3):
    """Feasible end of a plain log-tau bisection to a relative width of 1e-9."""
    assert ripple(lo) > budget >= ripple(hi)
    while hi / lo - 1.0 > 1e-9:
        mid = math.sqrt(lo * hi)
        if ripple(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    metric=st.sampled_from(["sampled_ptp", "analytic"]),
    fc=st.sampled_from([13.56e6, 915e6]),
    resistance=st.floats(0.5, 8.0),
    log_fraction=st.floats(-6.0, math.log10(0.98)),
)
def test_optimize_matches_a_plain_bisection(kind, metric, fc, resistance, log_fraction):
    def metric_at(capacitance):
        filt = RcFilter(resistance, capacitance)
        if metric == "analytic":
            return analytic_ripple(kind, filt, 1.0, fc)
        return sampled_ripple(kind, filt, 1.0, fc, samples=1024)

    def ripple(tau):
        return metric_at(tau / resistance)

    budget = ripple(0.0) * 10**log_fraction
    res = optimize_capacitance(kind, resistance, 1.0, fc, budget, metric, samples=1024)
    assert res.ripple <= budget and res.feasible
    assert res.ripple == metric_at(res.capacitance)
    assert res.tau == pytest.approx(bisect_log_tau(ripple, budget), rel=2e-9)


def count_sampled_ripple_calls(monkeypatch, ripple=sampled_ripple):
    """Route the design solve's sampled metric through ``ripple``; list each call's tau."""
    calls = []

    def counted(kind, filt, *args):
        calls.append(filt.tau)
        return ripple(kind, filt, *args)

    monkeypatch.setattr(rectenna.design, "sampled_ripple", counted)
    return calls


def test_optimize_golden_budget_takes_few_evaluations(monkeypatch):
    # the 0.1 V budget at the CLI defaults; a log-tau bisection took 39
    calls = count_sampled_ripple_calls(monkeypatch)
    res = optimize_capacitance(FULL, RL, 1.0, FC, 0.1)
    assert res.feasible and abs(res.ripple - 0.1) <= 1e-6 * 0.1
    assert 1 <= len(calls) <= 20


@pytest.mark.parametrize("knee", [1e-12, 1e-10, 1e-8])
def test_optimize_finds_the_root_of_a_single_pole_ripple(monkeypatch, knee):
    # ripple 1 / sqrt(1 + (tau/knee)^2) meets 0.5 at tau = sqrt(3) knee; the
    # curve bends between the bracket ends, where plain regula falsi keeps one
    # end for 19-23 evaluations and the Illinois halving takes 11-14
    calls = count_sampled_ripple_calls(
        monkeypatch, lambda kind, filt, *args: 1.0 / math.sqrt(1.0 + (filt.tau / knee) ** 2)
    )
    res = optimize_capacitance(FULL, RL, 1.0, FC, 0.5)
    root = math.sqrt(3.0) * knee
    assert res.ripple <= 0.5
    assert res.tau == pytest.approx(root, rel=1e-9)
    assert len(calls) <= 15


@pytest.mark.parametrize("budget", [0.5, 1e-2, 1e-4])
@pytest.mark.parametrize("knee", [1e-12, 1e-11, 1e-10, 1e-9])
def test_optimize_closes_the_bracket_once_the_secant_hits_the_root(monkeypatch, knee, budget):
    # ripple knee / tau above the knee is linear in log-log, so the first
    # secant step lands on the root and the next one on that bracket end; a
    # solve that bisects from there took 32-38 evaluations where this takes 4-8
    calls = count_sampled_ripple_calls(
        monkeypatch, lambda kind, filt, *args: min(1.0, knee / max(filt.tau, knee))
    )
    res = optimize_capacitance(FULL, RL, 1.0, FC, budget)
    root = knee / budget
    assert res.ripple <= budget
    assert root * (1.0 - 1e-15) <= res.tau <= root * (1.0 + 1e-9)
    assert len(calls) <= 10


def test_optimize_converges_on_a_cliff_that_stalls_regula_falsi(monkeypatch):
    # nearly flat above the budget, then a drop by e^-1e4 per unit of log tau:
    # from any bracket end on the drop the secant lands next to the flat end
    budget, cliff = 0.5, 3e-7

    def ripple(kind, filt, *args):
        tau = filt.tau
        if tau <= cliff:
            return 1.0 - 1e-3 * math.log1p(tau / 1e-15) / 40
        return 0.6 * (cliff / tau) ** 1e4

    calls = count_sampled_ripple_calls(monkeypatch, ripple)
    res = optimize_capacitance(FULL, RL, 1.0, FC, budget)
    root = cliff * math.exp(math.log(0.6 / budget) / 1e4)
    assert res.ripple <= budget
    assert root <= res.tau <= root * (1.0 + 1e-9)
    # a log-tau bisection from the same bracket takes 37, and the secant is
    # held to at most four evaluations more; Illinois unheld takes 53
    assert len(calls) <= 45


def test_optimize_refuses_a_budget_met_at_every_positive_tau(monkeypatch):
    # only tau = 0 exceeds the budget: the low end steps down to underflow
    count_sampled_ripple_calls(monkeypatch, lambda kind, filt, *args: 1.0 if filt.tau else 2.0)
    with pytest.raises(ValueError, match="smallest tau"):
        optimize_capacitance(FULL, RL, 1.0, FC, 1.5)


def test_optimize_refuses_a_bracket_with_no_float_inside(monkeypatch):
    # at fc = 1.7e308 this budget, just under the unfiltered ripple, puts the
    # root among subnormal taus a few ulps apart: a step rounds onto a bracket
    # end, so the bracket cannot shrink and the solve must stop, not loop

    def capped(kind, filt, *args):
        if len(calls) > 200:
            raise RuntimeError("the solve did not stop")
        return sampled_ripple(kind, filt, *args)

    calls = count_sampled_ripple_calls(monkeypatch, capped)
    with pytest.raises(ValueError, match="not resolvable"):
        optimize_capacitance(FULL, RL, 1.0, 1.7e308, 2.8213935)


@pytest.mark.parametrize("kind", [FULL, HALF])
def test_optimize_scales_with_the_carrier(kind):
    # the ripple depends on fc * tau alone, so fc * tau and v_dc must not
    # move with the carrier, however far tau falls below 1e-30 s
    results = [
        optimize_capacitance(kind, RL, 1.0, fc, 0.5, ripple_metric="analytic")
        for fc in (915e6, 1e20, 1e33)
    ]
    base = results[0]
    for fc, res in zip((1e20, 1e33), results[1:]):
        assert res.feasible
        assert fc * res.tau == pytest.approx(915e6 * base.tau, rel=1e-8)
        assert res.v_dc == pytest.approx(base.v_dc, rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([FULL, HALF]),
    log_fc=st.floats(0.0, 307.0),
    log_scaled_fc=st.floats(0.0, 307.0),
    log_x=st.floats(-3.0, 1.0),
)
# a half-wave cut-off at the carrier, at 1e307, where 2 pi k fc overflows for k >= 3
@example(kind=HALF, log_fc=9.0, log_scaled_fc=307.0, log_x=-math.log10(2.0 * math.pi))
def test_outputs_depend_on_the_carrier_only_through_fc_tau(kind, log_fc, log_scaled_fc, log_x):
    # (fc, tau) and (s fc, tau / s) share x = fc tau up to rounding, so every
    # output must agree; x up to 10 keeps the analytic ripple's cancellation
    # against DC far below the tolerance
    fc = 10.0**log_fc
    s = 10.0**log_scaled_fc / fc
    capacitance = 10.0**log_x / fc / RL
    # neither grid is Newton-polished, which would change the sampled metric
    unpolished = min(fc, s * fc) * rectenna.design.DEFAULT_SAMPLES >= 1e12

    def outputs(filt, carrier):
        metrics = (dc_voltage, analytic_ripple, ripple_peak)
        metrics += (sampled_ripple,) * unpolished
        values = [amplification_factor(filt, carrier)]
        return values + [metric(kind, filt, 1.0, carrier) for metric in metrics]

    one = outputs(RcFilter(RL, capacitance), fc)
    assert one == pytest.approx(outputs(RcFilter(RL, capacitance / s), s * fc), rel=1e-12)


def grid_one_period(n=4096):
    return np.arange(n) * (1.0 / FC / n)


def test_trace_higher_cutoff_means_more_dc_and_more_ripple():
    ts = grid_one_period()
    low = np.array([v for _, v in time_trace(FULL, RcFilter.from_cutoff(RL, 1e9), 1.0, FC, ts)])
    high = np.array([v for _, v in time_trace(FULL, RcFilter.from_cutoff(RL, 5e9), 1.0, FC, ts)])
    assert high.mean() > low.mean()
    assert np.ptp(high) > np.ptp(low)


def test_trace_unfiltered_equals_resistance_times_series():
    ts = grid_one_period(2048)
    values = np.array([v for _, v in time_trace(FULL, RcFilter(RL, 0.0), 1.0, FC, ts)])
    base = build_series(FULL, 256, scale=amplification_factor(RcFilter(RL, 0.0), FC), fc=FC)
    expected = RL * eval_series(base, ts)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_trace_unfiltered_close_to_rectified_input():
    ts = grid_one_period(2048)
    values = np.array([v for _, v in time_trace(FULL, RcFilter(RL, 0.0), 1.0, FC, ts)])
    reference = rectified_reference(FULL, RL, 1.0, FC, ts)
    tail = 4.0 / (math.pi * 256) * RL ** 1.5
    assert np.max(np.abs(values - reference)) <= tail


def test_trace_mean_equals_dc_voltage():
    ts = grid_one_period()
    values = np.array([v for _, v in time_trace(FULL, RcFilter.from_cutoff(RL, 1e9), 1.0, FC, ts)])
    dc = dc_voltage(FULL, RcFilter.from_cutoff(RL, 1e9), 1.0, FC)
    assert values.mean() == pytest.approx(dc, rel=1e-6)


def test_trace_rejects_empty_grid():
    with pytest.raises(ValueError):
        time_trace(FULL, RcFilter.from_cutoff(RL, 1e9), 1.0, FC, [])


SOURCE = {"amplitude": 1.0, "fc": FC}
SERIES = build_series(FULL, 8, fc=FC)
FILTER = RcFilter(RL, 1e-10)
TIME_INPUTS = ("t", "t_grid")
# each public entry point that checks its inputs: a call taking them by
# keyword, a good value of each, and those whose 0 another test pins as valid
ENTRY_POINTS = {
    "sweep_cutoff": (
        lambda **kw: sweep_cutoff(FULL, n_points=4, **kw),
        {"resistance": RL, **SOURCE, "cutoff_min": 1e8, "cutoff_max": 1e9}, (),
    ),
    "optimize_capacitance": (
        lambda **kw: optimize_capacitance(FULL, RL, ripple_budget=0.1, **kw), SOURCE, ()
    ),
    "time_trace": (lambda **kw: time_trace(FULL, FILTER, t_grid=[0.0, 1e-9], **kw), SOURCE, ()),
    "sampled_ripple": (lambda **kw: sampled_ripple(FULL, FILTER, **kw), SOURCE, ()),
    "analytic_ripple": (lambda **kw: analytic_ripple(FULL, FILTER, **kw), SOURCE, ()),
    "dc_voltage": (lambda **kw: dc_voltage(FULL, FILTER, **kw), SOURCE, ()),
    "amplification_factor": (lambda fc: amplification_factor(FILTER, fc), {"fc": FC}, ()),
    "ripple_peak": (lambda **kw: ripple_peak(FULL, FILTER, **kw), SOURCE, ("amplitude",)),
    "dc_limits": (
        lambda **kw: dc_limits(FULL, **kw), {"resistance": RL, "amplitude": 1.0}, ("amplitude",)
    ),
    "rectified_reference": (
        lambda **kw: rectified_reference(FULL, **kw),
        {"resistance": RL, **SOURCE, "t_grid": 1e-9}, (),
    ),
    "filtered_series": (
        lambda fc: filtered_series(dataclasses.replace(SERIES, fundamental_fc=fc), FILTER),
        {"fc": FC}, (),
    ),
    "build_series": (
        lambda **kw: build_series(FULL, 8, **kw), {"scale": 1.0, "fc": FC}, ("scale",)
    ),
    "eval_filtered": (
        lambda t: eval_filtered(filtered_series(SERIES, FILTER), t), {"t": 1e-9}, ()
    ),
    "eval_series": (lambda t: eval_series(SERIES, t), {"t": 1e-9}, ()),
}


def bad_inputs():
    for entry, (_, inputs, _) in ENTRY_POINTS.items():
        for name in inputs:
            values = [math.nan, math.inf, -math.inf]
            if name not in TIME_INPUTS:  # 0 and -1 are times like any other
                values += [0.0, -1.0]
            for value in values:
                yield pytest.param(entry, name, value, id=f"{entry}-{name}-{value}")


@pytest.mark.parametrize("entry,name,value", list(bad_inputs()))
def test_entry_points_reject_bad_amplitude_or_carrier(entry, name, value):
    # a library caller must get an error, not nan output; the checks run at
    # each public entry point, and the private helpers behind them run none
    call, inputs, zero_pinned = ENTRY_POINTS[entry]
    times = name in TIME_INPUTS
    source = {**inputs, name: [0.0, value] if times else value}
    if value == 0.0 and name in zero_pinned:
        call(**source)
        return
    with pytest.raises(ValueError, match="finite times" if times else f"^{name} must be finite"):
        call(**source)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="finite times"):
        time_trace(FULL, RcFilter(RL, 1e-10), 1.0, FC, [0.0, bad])


@pytest.mark.parametrize("kind,filt", [(FULL, RcFilter(RL, 0.0)), (HALF, RcFilter(3.1, 1e-10))])
def test_trace_is_a_float_array_of_time_value_rows(kind, filt):
    # unaligned window; each row must be bitwise the scalar evaluation at t_i
    ts = np.linspace(1.234e-9, 2.2e-7, 301)
    table = time_trace(kind, filt, 1.3, 13.56e6, ts, 64)
    assert isinstance(table, np.ndarray)
    assert table.dtype == np.float64 and table.shape == (301, 2)
    scale = amplification_factor(filt, 13.56e6) * 1.3
    fs = filtered_series(build_series(kind, 64, scale=scale, fc=13.56e6), filt)
    for (t, v), t_i in zip(table.tolist(), ts.tolist()):
        assert t == t_i
        assert v == eval_filtered(fs, t_i)
