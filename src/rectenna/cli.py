"""Command-line front end: coefficient tables, traces, sweeps, design, validation.

All tables are emitted as CSV (default) or JSON with 9-significant-digit
floats, so identical invocations produce byte-identical output.  A CSV table
is built by one ``%``-format pass over its flattened cells, whose ``%.9g``
gives exactly the digits of ``f"{v:.9g}"``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Sequence

import numpy as np

from . import oracle
from .design import make_grid, optimize_capacitance, sweep_cutoff, time_trace
from .rcfilter import (
    RcFilter,
    amplification_factor,
    dc_voltage,
    eval_filtered,
    filtered_series,
    max_ripple,
    require_finite_positive,
    ripple_peak,
)
from .rectifier import (
    DEFAULT_TRUNCATION,
    RectifierKind,
    build_series,
    coefficient_tail,
    eval_series,
    fourier_coefficient,
    multisine_a0,
)

DEFAULT_AMPLITUDE = 1.0
DEFAULT_FC = 915e6
DEFAULT_RESISTANCE = 2.0

_KINDS = {"full": RectifierKind.FULL_WAVE, "half": RectifierKind.HALF_WAVE}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def _emit(header: list[str], rows: Sequence[Sequence] | np.ndarray, args) -> None:
    # finite inputs can still overflow (fc or rl near the float maximum), so
    # every cell is checked before any --out file is opened.  An array (the
    # trace table) is flattened and checked by one numpy call each; row
    # sequences hold ints, bools and floats, all of which math.isfinite takes
    if isinstance(rows, np.ndarray):
        cells = rows.ravel().tolist()
        finite = bool(np.isfinite(rows).all())
        float_table = rows.dtype.kind == "f"
    else:
        cells = list(itertools.chain.from_iterable(rows))
        finite = all(map(math.isfinite, cells))
        float_table = False
    if not finite:
        raise ValueError("result is not finite; an input is out of range")
    if args.format == "csv":
        # one %-format over all cells: "%.9g" is f"{v:.9g}" digit for digit, so
        # all-float columns are formatted in C; other columns go in as _fmt text
        width = len(header)
        conversions = []
        for j in range(width):
            if float_table or set(map(type, cells[j::width])) <= {float}:
                conversions.append("%.9g")
            else:
                cells[j::width] = map(_fmt, cells[j::width])
                conversions.append("%s")
        row_format = ",".join(conversions) + "\n"
        text = ",".join(header) + "\n" + (row_format * len(rows)) % tuple(cells)
    else:
        records = [{name: _json_value(v) for name, v in zip(header, row)} for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[float, float, int, str]:
    """Parse ``min:max:points[:log]`` sweep syntax."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"expected min:max:points[:log], got {text!r}")
    lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] not in ("lin", "linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {parts[3]!r}")
        spacing = "log" if parts[3] == "log" else "linear"
    return lo, hi, points, spacing


def _filter_from_args(args) -> RcFilter:
    if args.cap is not None:
        return RcFilter(args.rl, args.cap)
    # --fcut 0 (or inf, which from_cutoff maps to C = 0) means the unfiltered case
    if args.fcut == 0:
        return RcFilter(args.rl, 0.0)
    return RcFilter.from_cutoff(args.rl, args.fcut)


def _cmd_coeffs(args) -> int:
    quads = oracle.quad_coefficient(args.kind, np.arange(args.k_max + 1), args.fc).tolist()
    rows = []
    for k, quad in enumerate(quads):
        closed = fourier_coefficient(args.kind, k)
        rows.append([k, closed, quad, abs(closed - quad)])
    _emit(["k", "a_closed", "a_quad", "abs_diff"], rows, args)
    return 0


def _cmd_multisine_a0(args) -> int:
    if ":" in args.df:
        lo, hi, points, spacing = _parse_range(args.df)
        dfs = make_grid(lo, hi, points, spacing)
    else:
        dfs = np.array([float(args.df)])
    rows = []
    for df in dfs:
        closed = multisine_a0(args.kind, args.fc, float(df))
        quad = oracle.quad_multisine_a0(args.kind, args.fc, float(df))
        rows.append([float(df), closed, quad, abs(closed - quad)])
    _emit(["df_hz", "a0_closed", "a0_quad", "abs_diff"], rows, args)
    return 0


def _cmd_trace(args) -> int:
    filt = _filter_from_args(args)
    if args.t is not None:
        lo, hi, points, spacing = _parse_range(args.t)
        if spacing != "linear":
            raise ValueError("trace time grid must be linear")
        ts = np.linspace(lo, hi, points)
    else:
        ts = np.arange(1024) * (2.0 / args.fc / 1024)
    table = time_trace(args.kind, filt, args.amplitude, args.fc, ts, args.truncation)
    _emit(["t_s", "v_o_v"], table, args)
    return 0


def _cmd_sweep(args) -> int:
    lo, hi, points, spacing = _parse_range(args.fcut)
    rows = sweep_cutoff(
        args.kind,
        args.rl,
        args.amplitude,
        args.fc,
        lo,
        hi,
        points,
        spacing,
        args.truncation,
    )
    table = [
        [r.cutoff, r.tau, r.capacitance, r.v_dc, r.ripple_analytic, r.ripple_sampled]
        for r in rows
    ]
    _emit(
        ["f_cut_hz", "tau_s", "cap_f", "v_dc_v", "ripple_analytic_v", "ripple_sampled_v"],
        table,
        args,
    )
    return 0


def _cmd_design(args) -> int:
    metric = "sampled_ptp" if args.metric == "sampled" else "analytic"
    res = optimize_capacitance(
        args.kind,
        args.rl,
        args.amplitude,
        args.fc,
        args.budget,
        metric,
        args.truncation,
    )
    _emit(
        ["cap_f", "tau_s", "v_dc_v", "ripple_v", "budget_v", "feasible"],
        [[res.capacitance, res.tau, res.v_dc, res.ripple, res.budget, res.feasible]],
        args,
    )
    return 0


def _validation_checks(fc: float, k_max: int):
    """Yield (name, ok, detail) for every oracle-agreement invariant."""
    full, half = RectifierKind.FULL_WAVE, RectifierKind.HALF_WAVE

    def max_abs(values) -> float:
        return float(np.max(np.abs(values)))

    harmonics = np.arange(k_max + 1)
    for kind, label in ((full, "full"), (half, "half")):
        closed = np.array([fourier_coefficient(kind, k) for k in range(k_max + 1)])
        err = max_abs(closed - oracle.quad_coefficient(kind, harmonics))
        yield f"coefficients_vs_quadrature[{label}]", err < 1e-8, f"max|diff|={err:.3e}"
        berr = max_abs(oracle.quad_b_coefficient(kind, harmonics))
        yield f"sine_coefficients_zero[{label}]", berr < 1e-9, f"max|b_k|={berr:.3e}"

    ok = all(
        fourier_coefficient(full, k) == 2.0 * fourier_coefficient(half, k)
        for k in range(k_max + 1)
        if k != 1
    )
    yield "full_is_twice_half", ok, "exact"

    probe = np.array([0, 1, 2, 5, 16, min(64, max(2, k_max))])
    # fc = 1, refine = 1: the reference of both checks below
    reference = {kind: oracle.quad_coefficient(kind, probe) for kind in (full, half)}
    derr = max(
        max_abs(reference[kind] - oracle.quad_coefficient(kind, probe, refine=2))
        for kind in (full, half)
    )
    yield "quadrature_panel_doubling", derr < 1e-10, f"max|diff|={derr:.3e}"

    ferr = max(
        max_abs(reference[kind] - oracle.quad_coefficient(kind, probe, fc=fc))
        for kind in (full, half)
    )
    yield "quadrature_fc_invariance", ferr < 1e-12, f"max|diff|={ferr:.3e}"

    rng = np.random.default_rng(20260811)
    dcerr = 0.0
    for _ in range(5):
        filt = RcFilter(float(rng.uniform(0.5, 20.0)), float(10 ** rng.uniform(-13, -10)))
        amp = float(rng.uniform(0.2, 3.0))
        scale = amplification_factor(filt, fc) * amp
        fs = filtered_series(build_series(full, 256, scale=scale, fc=fc), filt)
        # only the mean is read, so the argmax is left unrefined
        stats = oracle.sample_stats(
            lambda t: eval_filtered(fs, t), 1.0 / fc, 8192, refine_argmax=False
        )
        ref = dc_voltage(full, filt, amp, fc)
        dcerr = max(dcerr, abs(stats.mean - ref) / abs(ref))
    yield "dc_equals_sampled_mean", dcerr < 1e-9, f"max rel err={dcerr:.3e}"

    ok, worst = _steady_state_check(fc)
    yield "filtered_vs_steady_state", ok, f"max err/truncation bound={worst:.3f}"

    filt0 = RcFilter(2.0, 0.0)
    base = build_series(full, 256, scale=1.0, fc=fc)
    fs0 = filtered_series(base, filt0)
    ts = np.arange(1000) * (1.0 / fc / 1000)
    ierr = float(np.max(np.abs(eval_filtered(fs0, ts) - filt0.resistance * eval_series(base, ts))))
    # each series caches its Taylor table: free them before the K = 1024 one.
    # series_tail_bound takes base over, with its K = 256 table, and drops it
    reused = {256: base}
    del fs, base, fs0
    yield "unfiltered_identity", ierr < 1e-12, f"max|diff|={ierr:.3e}"

    rp = ripple_peak(full, filt0, 1.0, fc, 256)
    mr = max_ripple(full, 1.0, 2.0, 256)
    yield "ripple_peak_tau0_equals_max", rp == mr, f"{rp:.9g} vs {mr:.9g}"

    merr = 0.0
    for kind in (full, half):
        for ratio in (0.01, 0.05, 0.1, 0.5):
            df = ratio * fc
            merr = max(
                merr, abs(multisine_a0(kind, fc, df) - oracle.quad_multisine_a0(kind, fc, df))
            )
    yield "multisine_a0_vs_quadrature", merr < 1e-8, f"max|diff|={merr:.3e}"

    rerr = 0.0
    for ratio in (0.01, 0.05, 0.1, 0.5):
        df = ratio * fc
        got = multisine_a0(full, fc, df) / multisine_a0(half, fc, df)
        want = 2.0 - (df / fc) * math.sin(0.25 * math.pi * df / fc)
        rerr = max(rerr, abs(got - want))
    yield "multisine_full_half_factor", rerr < 1e-8, f"max|diff|={rerr:.3e}"

    ok = True
    detail = []
    for trunc in (64, 256, 1024):
        if trunc in reused:
            series = reused.pop(trunc)
        else:
            series = build_series(full, trunc, scale=1.0, fc=fc)
        sup = float(
            np.max(np.abs(eval_series(series, ts) - np.abs(np.cos(2 * np.pi * fc * ts))))
        )
        bound = 4.0 / (math.pi * trunc)
        ok = ok and sup <= bound
        detail.append(f"K={trunc}:{sup:.3e}<={bound:.3e}")
    yield "series_tail_bound", ok, " ".join(detail)

    herr = max(
        abs(
            oracle.sample_stats(
                lambda t, k=k: np.cos(2 * np.pi * k * t), 1.0, 4 * k * 8, refine_argmax=False
            ).mean
        )
        for k in (1, 3, 8)
    )
    yield "harmonic_sample_mean_zero", herr < 1e-12, f"max|mean|={herr:.3e}"


def _steady_state_check(fc: float) -> tuple[bool, float]:
    """The series against the filter's time-domain steady state at off-grid
    times, for seeded filters of both rectifiers: apart from roundoff they
    differ by at most the truncation tail.  Returns (ok, worst err/bound).
    """
    rng = np.random.default_rng(20261018)
    ok, worst = True, 0.0
    for kind in RectifierKind:
        for _ in range(3):
            filt = RcFilter(float(rng.uniform(0.5, 20.0)), float(10 ** rng.uniform(-13, -10)))
            scale = amplification_factor(filt, fc) * float(rng.uniform(0.2, 3.0))
            fs = filtered_series(build_series(kind, 256, scale=scale, fc=fc), filt)
            ts = rng.uniform(0.0, 1.0 / fc, 1000)
            exact = oracle.steady_state(kind, filt.resistance, scale, fc, filt.tau, ts)
            err = float(np.max(np.abs(eval_filtered(fs, ts) - exact)))
            bound = scale * filt.resistance * coefficient_tail(kind, 256)
            ok = ok and err <= bound + 1e-13 * scale * filt.resistance
            worst = max(worst, err / bound)
    return ok, worst


def _cmd_validate(args) -> int:
    # every check runs before the first line is printed, so a check that
    # raises (an out-of-range fc) leaves no partial report on stdout
    checks = list(_validation_checks(args.fc, args.k_max))
    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectenna",
        description="Rectified-carrier Fourier model: coefficients, RC filtering, "
        "DC/ripple trade-off and capacitance design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_filter=False):
        p.add_argument("--kind", choices=sorted(_KINDS), default="full",
                       help="rectifier nonlinearity (default: full)")
        p.add_argument("--amplitude", type=float, default=DEFAULT_AMPLITUDE,
                       help="source peak amplitude in volts (default: 1)")
        p.add_argument("--fc", type=float, default=DEFAULT_FC,
                       help="carrier frequency in Hz (default: 915e6)")
        p.add_argument("--rl", type=float, default=DEFAULT_RESISTANCE,
                       help="load resistance in ohms (default: 2)")
        p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                       help="number of harmonics kept (default: 256)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if needs_filter:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--fcut", type=float,
                               help="filter cut-off in Hz; 0 or inf selects the unfiltered tau=0 case")
            group.add_argument("--cap", type=float, help="filter capacitance in farads")

    p = sub.add_parser("coeffs", help="closed-form vs quadrature Fourier coefficients")
    add_common(p)
    p.add_argument("--k-max", type=int, default=16, help="highest harmonic index (default: 16)")

    p = sub.add_parser("trace", help="filter output voltage over a time grid")
    add_common(p, needs_filter=True)
    p.add_argument("--t", default=None,
                   help="time grid as start:stop:points (default: two carrier periods, 1024 points)")

    p = sub.add_parser("sweep", help="DC voltage and ripple vs cut-off frequency")
    add_common(p)
    p.add_argument("--fcut", required=True, help="cut-off grid as min:max:points[:log]")

    p = sub.add_parser("design", help="pick the capacitance for a ripple budget")
    add_common(p)
    p.add_argument("--budget", type=float, required=True, help="ripple budget in volts")
    p.add_argument("--metric", choices=("sampled", "analytic"), default="sampled",
                   help="ripple metric to constrain (default: sampled peak-to-peak)")

    p = sub.add_parser("multisine-a0", help="two-tone DC coefficient, closed form vs quadrature")
    add_common(p)
    p.add_argument("--df", required=True,
                   help="tone spacing in Hz, a single value or min:max:points[:log]")

    p = sub.add_parser("validate", help="run the oracle-agreement checks")
    add_common(p)
    p.add_argument("--k-max", type=int, default=64,
                   help="highest harmonic checked against quadrature (default: 64)")

    return parser


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "trace": _cmd_trace,
    "sweep": _cmd_sweep,
    "design": _cmd_design,
    "multisine-a0": _cmd_multisine_a0,
    "validate": _cmd_validate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building costs ~1 ms (one HelpFormatter per argument); parsing reuses it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.kind = _KINDS[args.kind]
    try:
        require_finite_positive("--amplitude", args.amplitude)
        require_finite_positive("--fc", args.fc)
        require_finite_positive("--rl", args.rl)
        if args.truncation < 1:
            raise ValueError(f"--truncation must be >= 1, got {args.truncation}")
        if getattr(args, "k_max", 0) < 0:  # coeffs and validate
            raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
        # out-of-range inputs overflow to inf or nan inside numpy; _emit
        # refuses such a table, so the warnings would only precede that error
        with np.errstate(over="ignore", invalid="ignore"):
            return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
