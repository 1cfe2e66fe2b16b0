"""Command-line front end: coefficient tables, traces, sweeps, design, validation.

All tables are emitted as CSV (default) or JSON with 9-significant-digit
floats, so identical invocations produce byte-identical output.  A CSV table
is built by one ``%``-format pass over its flattened cells, whose ``%.9g``
gives exactly the digits of ``f"{v:.9g}"``; a float array of at least
``_G9_MIN_CELLS`` cells (a trace) is formatted to the same bytes in numpy
by ``_g9_csv``.
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
    require_finite_positive,
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


# Float arrays of at least this many cells are formatted by _g9_csv.  Below
# it the fixed cost of its numpy calls outweighs what it saves over %; see
# ROADMAP "Measured and not pursued", vectorized %.9g, for the measurement
_G9_MIN_CELLS = 512
# cells per _g9_block.  Its (cells, 17) index array stays ~140 kB, and the
# allocator reuses its arrays from one block to the next: formatted whole, a
# 3001-row trace page-faulted ~70 times per call
_G9_CHUNK = 1024
# A cell's 20 source bytes, numbered 4 * w + b for byte b of its word w:
# 0-3 digits 2-5, 4-7 digits 6-9, 8-11 the exponent's sign and three digits,
# 12 the sign (or 0), 13 digit 1, 14 ".", 15 "0", 16 "e", 17 "," or "\n" and
# 18-19 zero.  Word w of cell i of a block is cells[w, i], at byte
# 4 * (w * _G9_CHUNK + i) of the block
_G9_DIGITS = [13, 0, 1, 2, 3, 4, 5, 6, 7]
_G9_SIGN, _G9_DOT, _G9_ZERO, _G9_E, _G9_SEP, _G9_PAD = 12, 14, 15, 16, 17, 18
_G9_EXP = [8, 9, 10, 11]
# word 3 with no sign and digit 1 "0": "0" | d is the digit d
_G9_WORD3 = ord("0") << 8 | ord(".") << 16 | ord("0") << 24


@functools.cache
def _g9_tables():
    """Lookup tables of _g9_block, built on first use.

    Indexed by a 4-digit group: its ASCII digits as one word, and its count
    of significant digits as digits 2-5 (1 + its own) and as digits 6-9
    (5 + its own, 0 for 0000).  Indexed by exponent X + 400: the exponent
    word, and the first of the 9 templates (one per count of significant
    digits) of its notation: fixed where -4 <= X <= 8, else e-notation with
    two exponent digits or three.  Indexed by X + 16: the exact factor and
    divisor that scale |v| to [1e8, 1e9), a zero factor where |8 - X| > 22.
    Then the 135 templates, the positions of the bytes a cell prints padded
    to 17 with a zero byte, and each cell's offset from its block's first.
    """
    pair = np.arange(100)
    two = pair // 10 + ord("0") | (pair % 10 + ord("0")) << 8  # "00".."99", 16 bits each
    sig2 = np.where(pair % 10 > 0, 2, pair > 0)
    significant = np.where(sig2 > 0, 2 + sig2, sig2[:, None]).ravel()
    e = np.arange(-400, 401)
    exp_words = np.where(e < 0, ord("-"), ord("+")) | (abs(e) // 100 + ord("0")) << 8
    exp_words |= two[abs(e) % 100] << 16
    first = np.where((e >= -4) & (e <= 8), 9 * (e + 4), 117 + 9 * (abs(e) >= 100)) - 1
    xs = np.arange(-16, 32)
    factor = np.where(abs(8 - xs) <= 22, 10.0 ** np.maximum(8 - xs, 0), 0.0)
    divisor = 10.0 ** np.clip(xs - 8, 0, 22)
    templates = np.full((135, 17), _G9_PAD)
    d = _G9_DIGITS
    for sig in range(1, 10):
        point = [_G9_DOT, *d[1:sig]] if sig > 1 else []
        for x in range(-4, 9):
            if x >= 0:
                cell = d[: x + 1] + ([_G9_DOT, *d[x + 1 : sig]] if sig > x + 1 else [])
            else:
                cell = [_G9_ZERO, _G9_DOT] + [_G9_ZERO] * (-x - 1) + d[:sig]
            templates[first[400 + x] + sig, : len(cell) + 2] = [_G9_SIGN, *cell, _G9_SEP]
        for x in (9, 100):  # e-notation, two exponent digits or three
            exponent = _G9_EXP[:1] + _G9_EXP[2 if x < 100 else 1 :]
            cell = [_G9_SIGN, d[0], *point, _G9_E, *exponent, _G9_SEP]
            templates[first[400 + x] + sig, : len(cell)] = cell
    return (
        (two[:, None] | two << 16).astype("<u4").ravel(),
        (1 + significant).astype(np.uint8),
        np.where(significant > 0, 5 + significant, 0).astype(np.uint8),
        exp_words.astype("<u4"),
        first,
        factor,
        divisor,
        (templates >> 2) * (4 * _G9_CHUNK) + (templates & 3),
        np.repeat(np.arange(0, 4 * _G9_CHUNK, 4), 17).reshape(_G9_CHUNK, 17),
    )


def _g9_csv(table: np.ndarray) -> str:
    """CSV lines of a finite float64 (rows, cols) array: the bytes of
    ``(("%.9g," * (cols - 1) + "%.9g\\n") * rows) % tuple(cells)``.

    Each cell's decimal exponent X comes from log10, and its 9-digit mantissa
    from one scaling of |v| by an exact power of ten (10**22 at most).  That
    product or quotient is correctly rounded, and below 2**30 every half
    integer is a double, so rounding never crosses one: where the scaled
    value lies in [1e8, 1e9) and is not itself a half integer, its rint is
    the correctly rounded mantissa.  The other cells (at a half integer,
    whose exact value may lie on either side; zero; beyond the exact powers'
    reach; or where log10 is one off next to a power of ten) take both from
    ``"%.8e"``, the same correctly rounded digits.  Each cell then gathers
    its bytes through the template of its notation and significant digits,
    and the zero pad bytes are dropped.
    """
    v, cols = table.ravel(), table.shape[1]
    blocks = range(0, v.size, _G9_CHUNK)
    return "".join(_g9_block(v[i : i + _G9_CHUNK], cols, -(i + 1) % cols) for i in blocks)


def _g9_block(v: np.ndarray, cols: int, last: int) -> str:
    """_g9_csv of at most _G9_CHUNK cells, ``last`` the first to end a row."""
    words, mid_sig, low_sig, exp_words, first, factor, divisor, templates, offsets = (
        _g9_tables()
    )
    a = np.abs(v)
    # X + 16, clipped to 0..47; the factor is 0 where |8 - X| > 22
    x = np.minimum(np.floor(np.log10(np.maximum(a, 1e-16))), 31.0).astype(np.intp) + 16
    s = a * factor[x] / divisor[x]
    x -= 16
    m = np.rint(s)
    slow = np.flatnonzero((s < 1e8) | (s >= 1e9) | (abs(s - m) == 0.5))
    if slow.size:
        texts = ["%.8e" % f for f in a[slow].tolist()]
        m[slow] = [int(t[0] + t[2:10]) for t in texts]
        x[slow] = [int(t[11:]) for t in texts]
    carry = m == 1e9
    if carry.any():
        m[carry] = 1e8
        x[carry] += 1
    mantissa = m.astype(np.intp)
    mid = mantissa // 10000
    low = mantissa - 10000 * mid
    lead = mid // 10000
    mid -= 10000 * lead
    n = v.size
    cells = np.empty((5, _G9_CHUNK), "<u4")
    words.take(mid, out=cells[0, :n])
    words.take(low, out=cells[1, :n])
    exp_words.take(x + 400, out=cells[2, :n])
    cells[3, :n] = np.signbit(v) * ord("-") | lead << 8 | _G9_WORD3
    cells[4] = ord("e") | ord(",") << 8
    cells[4, last:n:cols] = ord("e") | ord("\n") << 8
    pick = first[x + 400] + np.maximum(mid_sig[mid], low_sig[low])
    index = templates.take(pick, axis=0)
    index += offsets[:n]
    return cells.view(np.uint8).ravel().take(index).tobytes().translate(None, b"\0").decode()


def _emit(header: list[str], rows: Sequence[Sequence] | np.ndarray, args) -> None:
    # finite inputs can still overflow (fc or rl near the float maximum), so
    # every cell is checked before any --out file is opened.  An array (the
    # trace table) is checked by one numpy call; row sequences hold ints,
    # bools and floats, all of which math.isfinite takes
    array = isinstance(rows, np.ndarray)
    if array:
        finite = bool(np.isfinite(rows).all())
    else:
        cells = list(itertools.chain.from_iterable(rows))
        finite = all(map(math.isfinite, cells))
    if not finite:
        raise ValueError("result is not finite; an input is out of range")
    if args.format == "csv" and array and rows.dtype == np.float64 and rows.size >= _G9_MIN_CELLS:
        # a large float table (a trace): the bytes of the % pass below, in numpy
        text = ",".join(header) + "\n" + _g9_csv(rows)
    elif args.format == "csv":
        # one %-format over all cells: "%.9g" is f"{v:.9g}" digit for digit, so
        # all-float columns are formatted in C; other columns go in as _fmt text
        if array:
            cells = rows.ravel().tolist()
        float_table = array and rows.dtype.kind == "f"
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


def _parse_range(option: str, text: str) -> tuple[float, float, int, str]:
    """Parse ``min:max:points[:log]`` sweep syntax given to ``option``."""
    parts = text.split(":")
    try:
        if len(parts) in (3, 4):
            # the spacing is passed on as given: make_grid refuses a bad one
            spacing = parts[3] if len(parts) == 4 else "linear"
            return float(parts[0]), float(parts[1]), int(parts[2]), spacing
    except ValueError:
        pass
    raise ValueError(f"{option} expects min:max:points[:log], got {text!r}")


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
    try:
        dfs = np.array([float(args.df)])
    except ValueError:  # not one float: read as a range, whose refusal names --df
        dfs = make_grid(*_parse_range("--df", args.df))
    # every closed form first: it refuses df > fc, which the quadrature takes
    closed = [multisine_a0(args.kind, args.fc, df) for df in dfs.tolist()]
    quads = oracle.quad_multisine_a0(args.kind, args.fc, dfs).tolist()
    rows = [[df, c, q, abs(c - q)] for df, c, q in zip(dfs.tolist(), closed, quads)]
    _emit(["df_hz", "a0_closed", "a0_quad", "abs_diff"], rows, args)
    return 0


def _cmd_trace(args) -> int:
    filt = _filter_from_args(args)
    if args.t is not None:
        lo, hi, points, spacing = _parse_range("--t", args.t)
        if spacing != "linear":
            raise ValueError("trace time grid must be linear")
        if points < 1:
            raise ValueError(f"--t needs at least 1 point, got {points}")
        ts = np.linspace(lo, hi, points)
    else:
        ts = np.arange(1024) * (2.0 / args.fc / 1024)
    table = time_trace(args.kind, filt, args.amplitude, args.fc, ts, args.truncation)
    _emit(["t_s", "v_o_v"], table, args)
    return 0


def _cmd_sweep(args) -> int:
    lo, hi, points, spacing = _parse_range("--fcut", args.fcut)
    table = sweep_cutoff(
        args.kind, args.rl, args.amplitude, args.fc, lo, hi, points, spacing, args.truncation
    )
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

    projections = {}

    def quad(kind, ks, carrier=1.0, refine=1):
        # a_k + j b_k at ks, bitwise a direct call's: one projection per distinct key
        key = (kind, int(ks.max()), carrier, refine)
        if key not in projections:
            projections[key] = oracle.quad_projection(kind, np.arange(key[1] + 1), carrier, refine)
        return projections[key][ks]

    harmonics = np.arange(k_max + 1)
    for kind, label in ((full, "full"), (half, "half")):
        closed = np.array([fourier_coefficient(kind, k) for k in range(k_max + 1)])
        projection = quad(kind, harmonics)
        err = max_abs(closed - projection.real)
        yield f"coefficients_vs_quadrature[{label}]", err < 1e-8, f"max|diff|={err:.3e}"
        berr = max_abs(projection.imag)
        yield f"sine_coefficients_zero[{label}]", berr < 1e-9, f"max|b_k|={berr:.3e}"

    ok = all(
        fourier_coefficient(full, k) == 2.0 * fourier_coefficient(half, k)
        for k in range(k_max + 1)
        if k != 1
    )
    yield "full_is_twice_half", ok, "exact"

    probe = np.array([0, 1, 2, 5, 16, min(64, max(2, k_max))])
    # fc = 1, refine = 1: the reference of both checks below
    reference = {kind: quad(kind, probe).real for kind in (full, half)}
    derr = max(
        max_abs(reference[kind] - quad(kind, probe, refine=2).real) for kind in (full, half)
    )
    yield "quadrature_panel_doubling", derr < 1e-10, f"max|diff|={derr:.3e}"

    ferr = max(
        max_abs(reference[kind] - quad(kind, probe, carrier=fc).real)
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
        stats = oracle.sample_stats(lambda t: eval_filtered(fs, t), 1.0 / fc, 8192)
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
    dfs = [ratio * fc for ratio in (0.01, 0.05, 0.1, 0.5)]
    for kind in (full, half):
        quads = oracle.quad_multisine_a0(kind, fc, np.array(dfs)).tolist()
        for df, q in zip(dfs, quads):
            merr = max(merr, abs(multisine_a0(kind, fc, df) - q))
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
        abs(oracle.sample_stats(lambda t, k=k: np.cos(2 * np.pi * k * t), 1.0, 4 * k * 8).mean)
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
    options = {
        "--kind": dict(choices=sorted(_KINDS), default="full",
                       help="rectifier nonlinearity (default: full)"),
        "--amplitude": dict(type=float, default=DEFAULT_AMPLITUDE,
                            help="source peak amplitude in volts (default: 1)"),
        "--fc": dict(type=float, default=DEFAULT_FC,
                     help="carrier frequency in Hz (default: 915e6)"),
        "--rl": dict(type=float, default=DEFAULT_RESISTANCE,
                     help="load resistance in ohms (default: 2)"),
        "--truncation": dict(type=int, default=DEFAULT_TRUNCATION,
                             help="number of harmonics kept (default: 256)"),
        "--format": dict(choices=("csv", "json"), default="csv",
                         help="output format (default: csv)"),
        "--out": dict(default=None, help="write output to this path instead of stdout"),
    }
    every = tuple(options)

    def add(name, handler, summary, flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        return p

    p = add("coeffs", _cmd_coeffs, "closed-form vs quadrature Fourier coefficients",
            ("--kind", "--fc", "--format", "--out"))
    p.add_argument("--k-max", type=int, default=16, help="highest harmonic index (default: 16)")

    p = add("trace", _cmd_trace, "filter output voltage over a time grid", every)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fcut", type=float,
                       help="filter cut-off in Hz; 0 or inf selects the unfiltered tau=0 case")
    group.add_argument("--cap", type=float, help="filter capacitance in farads")
    p.add_argument("--t", default=None,
                   help="time grid as start:stop:points (default: two carrier periods, 1024 points)")

    p = add("sweep", _cmd_sweep, "DC voltage and ripple vs cut-off frequency", every)
    p.add_argument("--fcut", required=True, help="cut-off grid as min:max:points[:log]")

    p = add("design", _cmd_design, "pick the capacitance for a ripple budget", every)
    p.add_argument("--budget", type=float, required=True, help="ripple budget in volts")
    p.add_argument("--metric", choices=("sampled", "analytic"), default="sampled",
                   help="ripple metric to constrain (default: sampled peak-to-peak)")

    p = add("multisine-a0", _cmd_multisine_a0,
            "two-tone DC coefficient, closed form vs quadrature",
            ("--kind", "--fc", "--format", "--out"))
    p.add_argument("--df", required=True,
                   help="tone spacing in Hz, a single value or min:max:points[:log]")

    # validate checks both rectifiers and prints its own PASS/FAIL report
    p = add("validate", _cmd_validate, "run the oracle-agreement checks", ("--fc",))
    p.add_argument("--k-max", type=int, default=64,
                   help="highest harmonic checked against quadrature (default: 64)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building costs ~1 ms (one HelpFormatter per argument); parsing reuses it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if "kind" in args:
        args.kind = _KINDS[args.kind]
    try:
        # each check runs only where the command has the option
        for name in ("amplitude", "fc", "rl"):
            if name in args:
                require_finite_positive(f"--{name}", getattr(args, name))
        if "truncation" in args and args.truncation < 1:
            raise ValueError(f"--truncation must be >= 1, got {args.truncation}")
        if "k_max" in args and args.k_max < 0:
            raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
        # out-of-range inputs overflow to inf or nan inside numpy; _emit
        # refuses such a table, so the warnings would only precede that error
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array that a point count or truncation makes too large
        detail = f": {exc}" if str(exc) else ""
        print(f"error: input too large to allocate{detail}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
