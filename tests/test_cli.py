import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rectenna.cli
import rectenna.oracle
from rectenna import (
    RcFilter,
    RectifierKind,
    amplification_factor,
    build_series,
    eval_filtered,
    eval_series,
    filtered_series,
)
from rectenna.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_coeffs_table(capsys):
    code, out, _ = run_cli(capsys, ["coeffs", "--kind", "full", "--k-max", "8"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "a_closed", "a_quad", "abs_diff"]
    assert len(rows) == 9
    k2 = rows[2]
    assert float(k2[1]) == pytest.approx(0.4244132, abs=1e-6)
    assert all(float(row[3]) < 1e-8 for row in rows)


def test_coeffs_output_is_deterministic(capsys):
    argv = ["coeffs", "--kind", "half", "--k-max", "6"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_coeffs_json_mirrors_csv_fields(capsys):
    code, out, _ = run_cli(capsys, ["coeffs", "--k-max", "4", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert len(records) == 5
    assert set(records[0]) == {"k", "a_closed", "a_quad", "abs_diff"}
    assert records[0]["a_closed"] == pytest.approx(4.0 / math.pi, rel=1e-8)


def test_sweep_monotone_and_saturating(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--kind", "full", "--fcut", "1e8:1e11:20:log"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["f_cut_hz", "tau_s", "cap_f", "v_dc_v", "ripple_analytic_v",
                      "ripple_sampled_v"]
    v = [float(row[3]) for row in rows]
    assert all(a < b for a, b in zip(v, v[1:]))
    assert v[-1] == pytest.approx(1.80063, rel=0.01)


def test_trace_unfiltered_identity(capsys):
    code, out, _ = run_cli(
        capsys, ["trace", "--kind", "full", "--fcut", "0", "--t", "0:2e-9:64"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t_s", "v_o_v"]
    ts = np.array([float(row[0]) for row in rows])
    values = np.array([float(row[1]) for row in rows])
    filt = RcFilter(2.0, 0.0)
    base = build_series(RectifierKind.FULL_WAVE, 256,
                        scale=amplification_factor(filt, 915e6), fc=915e6)
    expected = 2.0 * eval_series(base, ts)
    assert values == pytest.approx(expected, rel=1e-6, abs=1e-6)


def test_trace_default_grid(capsys):
    code, out, _ = run_cli(capsys, ["trace", "--cap", "3.5e-11"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1024


def test_trace_requires_exactly_one_filter_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--fcut", "1e9", "--cap", "1e-12"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_design_reports_feasible_boundary(capsys):
    code, out, _ = run_cli(capsys, ["design", "--budget", "0.2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["cap_f", "tau_s", "v_dc_v", "ripple_v", "budget_v", "feasible"]
    row = rows[0]
    assert row[5] == "true"
    assert float(row[3]) == pytest.approx(0.2, rel=1e-5)


def test_multisine_a0_single_and_range(capsys):
    code, out, _ = run_cli(capsys, ["multisine-a0", "--kind", "half", "--df", "91.5e6"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["df_hz", "a0_closed", "a0_quad", "abs_diff"]
    assert float(rows[0][1]) == pytest.approx(0.6362479, abs=1e-6)
    assert float(rows[0][3]) < 1e-8

    code, out, _ = run_cli(capsys, ["multisine-a0", "--df", "1e6:1e8:5:log"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert all(float(row[3]) < 1e-8 for row in rows)


def test_validate_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--k-max", "32"])
    assert code == 0
    lines = out.strip().splitlines()
    assert any("coefficients_vs_quadrature" in line for line in lines)
    assert all(not line.startswith("FAIL") for line in lines)
    assert lines[-1] == "all checks passed"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, ["coeffs", "--k-max", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, ["coeffs", "--k-max", "3"])
    assert target.read_text() == direct


def test_unwritable_output_path_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, ["design", "--budget", "0.1", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fcut", "1e8-1e11-20"],
        ["sweep", "--fcut", "1e8:1e11:5e1:log"],  # a point count that is not an int
        ["multisine-a0", "--df", "1:x:3"],  # a bound that is not a float
        ["multisine-a0", "--df", "x"],  # neither one value nor a range
        ["trace", "--cap", "1e-10", "--t", "0:1e-9:10:log:x"],  # five parts
    ],
)
def test_bad_range_syntax_is_config_error(capsys, argv):
    # the refusal names the option and the text given to it
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[-2]} expects min:max:points[:log], got {argv[-1]!r}\n"


@pytest.mark.parametrize("spacing", ["lin", "Log", ""])
def test_unknown_range_spacing_is_refused_by_the_grid_builder(capsys, spacing):
    code, out, err = run_cli(capsys, ["sweep", "--fcut", f"1e8:1e11:20:{spacing}"])
    assert code == 2
    assert out == ""
    assert err == f"error: spacing must be 'linear' or 'log', got {spacing!r}\n"


def test_bad_parameter_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["design", "--amplitude", "-1", "--budget", "0.1"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--rl", "2"],
        ["multisine-a0", "--df", "1e6", "--truncation", "8"],
        ["validate", "--kind", "half"],
        ["validate", "--format", "json"],
        ["validate", "--out", "{out}"],
    ],
)
def test_option_a_command_does_not_read_is_refused(tmp_path, capsys, argv):
    # these commands once accepted every model and output option and ignored
    # the ones they never read; validate prints its report to stdout only
    target = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=target) for arg in argv])
    assert exc.value.code == 2
    assert not target.exists()
    _, err = capsys.readouterr()
    assert "unrecognized arguments" in err


# each command's long options, in the order build_parser declares them
SHARED = ["--kind", "--amplitude", "--fc", "--rl", "--truncation", "--format", "--out"]
OPTIONS = {
    "coeffs": ["--kind", "--fc", "--format", "--out", "--k-max"],
    "trace": SHARED + ["--fcut", "--cap", "--t"],
    "sweep": SHARED + ["--fcut"],
    "design": SHARED + ["--budget", "--metric"],
    "multisine-a0": ["--kind", "--fc", "--format", "--out", "--df"],
    "validate": ["--fc", "--k-max"],
}

# SHA-256 of each --help text at an 80-column width.  The top-level, trace,
# sweep and design texts were recorded before coeffs, multisine-a0 and
# validate dropped the options they never read, and did not move with it
HELP = {
    None: "afad61dc8bd13a19c012598f2eb142cf544128b7b775e09ae441f05f5d788150",
    "coeffs": "7f5742e599c2f4e2172afb175746db353b4fe1059e255bbfcf66a79a0b22a21d",
    "trace": "24e4e5896031cd506c7fced421a7398094378b132d27328a7d13ce812ad4474a",
    "sweep": "3625bc278dcd2da7b402c638601998d65e1f467771a69446cd83aaf0b714aba9",
    "design": "768298c095871c6104cbbe66c39e8c4f99fa57495c66038e95f35c3043f415b0",
    "multisine-a0": "8233f44436188bda483ab8ae5d5f0abc3344e486b2164b533755c0da121f456f",
    "validate": "e3c5cc175a435804a9c096265dc7a560288f95b7a19d82899cf875259b5b9227",
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_takes_exactly_its_options():
    commands = _subparsers(rectenna.cli.build_parser())
    assert list(commands) == list(OPTIONS)
    for name, sub in commands.items():
        longs = [
            flag for action in sub._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        ]
        assert longs == OPTIONS[name], name
    assert sum(map(len, OPTIONS.values())) == 39


def test_help_texts_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = rectenna.cli.build_parser()
    texts = {None: parser.format_help()}
    texts.update((name, sub.format_help()) for name, sub in _subparsers(parser).items())
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == HELP


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("resistance,cap", [(2.0, 1e-10), (3.7, 2.9e-12), (1.3, 4.1e-11)])
def test_trace_cap_evaluates_exactly_that_capacitor(capsys, monkeypatch, resistance, cap):
    # RcFilter.from_cutoff(R, RcFilter(R, C).cutoff) can miss C by one ulp, as
    # it does for (2, 1e-10); the CLI hands the filter itself to time_trace
    seen = []
    time_trace = rectenna.cli.time_trace

    def spy(kind, filt, *args):
        seen.append(filt)
        return time_trace(kind, filt, *args)

    monkeypatch.setattr(rectenna.cli, "time_trace", spy)
    code, out, _ = run_cli(capsys, ["trace", "--cap", repr(cap), "--rl", repr(resistance)])
    assert code == 0
    filt = RcFilter(resistance, cap)
    assert seen == [filt]
    scale = amplification_factor(filt, 915e6)
    fs = filtered_series(build_series(RectifierKind.FULL_WAVE, 256, scale=scale, fc=915e6), filt)
    expected = eval_filtered(fs, np.arange(1024) * (2.0 / 915e6 / 1024))
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == [f"{v:.9g}" for v in expected]


def test_fcut_zero_and_inf_both_mean_no_capacitor(capsys):
    _, zero, _ = run_cli(capsys, ["trace", "--fcut", "0"])
    _, inf, _ = run_cli(capsys, ["trace", "--fcut", "inf"])
    assert zero == inf


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--amplitude=nan", "--budget", "0.1"],
        ["design", "--rl=inf", "--budget", "0.1"],
        ["design", "--budget=nan"],
        ["design", "--budget=inf"],
        ["design", "--budget", "1e-300"],  # unreachable within the tau search range
        ["trace", "--cap=nan"],
        ["trace", "--fcut=-inf"],
        ["trace", "--fcut=nan"],
        ["sweep", "--fcut", "1e8:inf:3:log"],
        ["multisine-a0", "--df=nan"],
        ["multisine-a0", "--df", "1.2e9"],  # df > fc, where the closed form fails
        ["trace", "--fc=1.7e308", "--fcut", "0"],  # finite input, overflowing output
        ["sweep", "--rl", "1e300", "--fcut", "1e8:1e9:4:log"],  # v_dc inf, ripples nan
        ["design", "--rl", "1e300", "--budget", "0.1"],  # unfiltered ripple nan
        ["coeffs", "--k-max", "-1"],
        ["validate", "--k-max", "-1"],  # exited 2 with "max() arg is an empty sequence"
    ],
)
def test_non_finite_or_unreachable_input_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error" in err
    if "--k-max" in argv:
        assert err == "error: --k-max must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--cap", "1e-10", "--t", "0:1e-9:1000000000000"],
        ["sweep", "--fcut", "1e8:1e11:1000000000000:log"],
        ["multisine-a0", "--df", "1:1e6:1000000000000"],
        ["design", "--budget", "0.1", "--truncation", "1000000000000"],
        ["coeffs", "--k-max", "1000000000000"],
    ],
)
def test_unallocatable_input_size_is_config_error(capsys, argv):
    # 1e12 points or harmonics: numpy refuses the ~7 TiB array before
    # touching any memory, and the CLI reports it instead of a traceback
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large to allocate: Unable to allocate ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("points", [0, -2])
def test_trace_point_count_below_one_names_the_option(capsys, points):
    code, out, err = run_cli(capsys, ["trace", "--cap", "1e-10", "--t", f"0:1e-9:{points}"])
    assert code == 2
    assert out == ""
    assert err == f"error: --t needs at least 1 point, got {points}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["multisine-a0", "--df", "1e300", "--fc", "1e308"],  # printed a0_quad = 0, exit 0
        ["coeffs", "--k-max", "2", "--fc", "1e308"],
        ["coeffs", "--k-max", "2", "--fc", "1e-310"],
        ["validate", "--fc", "1e308"],
    ],
)
def test_quadrature_out_of_range_carrier_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: fc = ")
    assert err.count("\n") == 1


def test_overflowing_input_prints_one_error_line():
    # numpy overflow warnings must not precede the error the CLI reports
    src = pathlib.Path(rectenna.cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "rectenna.cli", "trace", "--fc", "1.7e308", "--fcut", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: result is not finite; an input is out of range\n"


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["trace-cap", "trace-fcut", "sweep", "design"]),
    knob=st.sampled_from(["--amplitude", "--fc", "--rl"]),
    knob_value=ANY_FLOAT,
    value=ANY_FLOAT,
)
def test_cli_never_exits_zero_with_non_finite_output(command, knob, knob_value, value):
    argv = {
        "trace-cap": ["trace", f"--cap={value!r}"],
        "trace-fcut": ["trace", f"--fcut={value!r}"],
        "sweep": ["sweep", f"--fcut={value!r}:1e11:3:log"],
        "design": ["design", f"--budget={value!r}", "--metric", "analytic"],
    }[command] + [f"{knob}={knob_value!r}", "--truncation", "32"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            code = exc.code
    if code != 0:
        return
    _, rows = parse_csv(out.getvalue())
    cells = [cell for row in rows for cell in row if cell not in ("true", "false")]
    assert all(math.isfinite(float(cell)) for cell in cells), argv


def _emit_reference(header, rows):
    # the cell-by-cell CSV formatter that the one-pass _emit must reproduce
    lines = [",".join(header)]
    lines += [
        ",".join(f"{v:.9g}" if type(v) is float else rectenna.cli._fmt(v) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _emit_text(header, rows, output_format="csv", output_path=None):
    args = argparse.Namespace(format=output_format, out=output_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rectenna.cli._emit(header, rows, args)
    return out.getvalue()


def _assert_same_text(got, want):
    # names the first differing line: pytest's own diff of a long table takes
    # seconds, once per example while hypothesis shrinks
    if got != want:
        lines = list(zip(got.splitlines(), want.splitlines()))
        bad = next((i for i, (g, w) in enumerate(lines) if g != w), None)
        if bad is None:
            pytest.fail(f"{len(got)} characters != {len(want)}, lines equal as far as both go")
        pytest.fail(f"line {bad}: {lines[bad][0]!r} != {lines[bad][1]!r}")


EDGE_FLOATS = [-0.0, 5e-324, 1e308, 1.0, 1e16, 123456789.5]
CELLS = {
    "float": st.one_of(
        st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    ),
    "int": st.integers(-(2**63), 2**63),
    "bool": st.booleans(),
}
# float arrays of at least this many cells take the vectorized CSV formatter
CROSSOVER = rectenna.cli._G9_MIN_CELLS
# row counts either side of the crossover: up to 40, or around it for widths 1-6
ROW_COUNTS = st.one_of(st.integers(0, 40), st.integers(CROSSOVER // 6 - 2, CROSSOVER + 2))


def _repeated(draw, element, count, limit=40):
    # count drawn elements; past what hypothesis can draw, a drawn pattern of
    # up to limit repeated in a drawn order
    if count <= limit:
        return draw(st.lists(element, min_size=count, max_size=count))
    pattern = draw(st.lists(element, min_size=1, max_size=limit))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(count)
    return [pattern[i % len(pattern)] for i in order.tolist()]


@st.composite
def tables(draw, row_counts=st.integers(0, 40)):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    rows = _repeated(draw, st.tuples(*(CELLS[k] for k in kinds)), draw(row_counts))
    return [f"c{j}" for j in range(len(kinds))], rows


@settings(max_examples=200, deadline=None)
@given(table=tables(ROW_COUNTS))
@example(table=(["a", "b"], [(v, i) for i, v in enumerate(EDGE_FLOATS)]))
@example(table=(["a", "b", "c"], []))
def test_emit_csv_matches_cell_by_cell_formatting(table):
    header, rows = table
    text = _emit_text(header, rows)
    _assert_same_text(text, _emit_reference(header, rows))
    if not rows:
        assert text == ",".join(header) + "\n"
    elif all(type(v) is float for v in rows[0]):
        # the same float cells as an array: below the crossover the % pass,
        # at or above it the vectorized formatter
        _assert_same_text(_emit_text(header, np.array(rows, dtype=float)), text)


@settings(max_examples=100, deadline=None)
@given(
    table=tables().filter(lambda t: t[1] and isinstance(t[1][0][0], float)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.integers(0),
)
def test_emit_rejects_non_finite_cell_before_opening_output(table, bad, where):
    header, rows = table
    rows = [list(row) for row in rows]
    rows[where % len(rows)][0] = bad
    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp) / "table.out"
        for output_format in ("csv", "json"):
            with pytest.raises(ValueError):
                _emit_text(header, rows, output_format, str(target))
            assert not target.exists()


@settings(max_examples=100, deadline=None)
@given(
    rows=st.one_of(st.integers(0, 40), st.integers(CROSSOVER // 4 - 2, CROSSOVER + 2)),
    width=st.integers(1, 4),
    data=st.data(),
)
def test_emit_takes_a_float_array_as_its_rows(rows, width, data):
    # a trace table arrives as an (N, width) array and must print exactly as
    # the same cells given as rows of Python floats; with widths 1-4 the large
    # row counts put tables on both sides of the crossover
    values = _repeated(data.draw, CELLS["float"], rows * width, limit=160)
    table = np.array(values, dtype=float).reshape(rows, width)
    header = [f"c{j}" for j in range(width)]
    for output_format in ("csv", "json"):
        _assert_same_text(
            _emit_text(header, table, output_format),
            _emit_text(header, table.tolist(), output_format),
        )
    if rows:
        bad = table.copy()
        bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "table.out"
            for output_format in ("csv", "json"):
                with pytest.raises(ValueError):
                    _emit_text(header, bad, output_format, str(target))
                assert not target.exists()


def _decimal_ties(rng, count):
    # the doubles nearest 9-digit decimals followed by a 5: their scaled
    # values lie within rounding error of the tie
    digits = rng.integers(10**8, 10**9, count)
    exponents = rng.integers(-30, 40, count)
    return [float(f"{d // 10**8}.{d % 10**8:08d}5e{e}") for d, e in zip(digits, exponents)]


def test_vectorized_csv_matches_cell_by_cell_formatting_on_hard_cells():
    rng = np.random.default_rng(20261020)
    patterns = rng.integers(0, 2**64, 120_000, dtype=np.uint64).view(np.float64)
    powers = 10.0 ** np.arange(-323, 309)
    edges = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        123456789.5, 123456788.5, 0.5, 1.5, 2.5, 999999999.5, 999999999.4999999,
        999999999.7, 9.9999999996, 0.099999999996, 9999999999.6, 99999.99995,
        1e-4, 1e-5, 9.9999999995e-5, 9.99999999949e-5, 1e8, 1e9, 99999999.95, 999999999.0,
        1e22, 1e23, 9.999999995e22, 1e-14, 1e-15, 1e30, 1e31, 9.9999999996e30,
        1e100, 1e-100, 9.9999999996e99, 1e-99, 1.5e-323,
    ]
    cells = np.concatenate([
        patterns[np.isfinite(patterns)],
        rng.standard_normal(40_000) * 10.0 ** rng.uniform(-20, 35, 40_000),
        _decimal_ties(rng, 20_000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges, np.negative(edges),
    ])
    assert cells.size >= 100_000 + 60_000
    # every cell in each column position, and rows longer than a block
    for width in (1, 2, 3):
        table = cells[: cells.size // width * width].reshape(-1, width)
        header = [f"c{j}" for j in range(width)]
        _assert_same_text(_emit_text(header, table), _emit_reference(header, table.tolist()))
    wide = cells[: 3 * rectenna.cli._G9_CHUNK].reshape(2, -1)
    header = ["c"] * wide.shape[1]
    _assert_same_text(_emit_text(header, wide), _emit_reference(header, wide.tolist()))


def test_emit_formats_float_arrays_from_the_crossover_in_numpy(monkeypatch):
    # below the crossover, row sequences and JSON keep the % pass
    calls = []
    formatter = rectenna.cli._g9_csv

    def counted(table):
        calls.append(table.shape)
        return formatter(table)

    monkeypatch.setattr(rectenna.cli, "_g9_csv", counted)
    table = np.linspace(-1.0, 1.0, CROSSOVER).reshape(-1, 2)
    for rows, output_format in ((table, "csv"), (table[:-1], "csv"), (table.tolist(), "csv"),
                                (table, "json")):
        _emit_text(["a", "b"], rows, output_format)
    assert calls == [table.shape]


# stdout SHA-256 of each command, recorded before the FFT period-grid engine
# replaced the per-harmonic loop; later speed-ups must keep these bytes.  The
# 13.56 MHz sweep was re-recorded when its sampled ripple began to polish both
# extrema by Newton's method (coarse grid), which moved only that column.  The
# next three (a 3001-row trace on an unaligned window, a table with an int
# column, and JSON output) were recorded before CSV tables were built by one
# %-format pass.  The last two (a JSON trace, and validate at 13.56 MHz, whose
# sampled mean runs the evaluator on 8192-point arrays) were recorded before
# the trace table became an array and the Horner kernel began to reuse its
# buffers.  Two were re-recorded when
# a Taylor table replaced the Horner kernel and the filter amplitudes became
# a_k R / (1 + j wt): the half-wave 13.56 MHz trace, whose near-zero rows
# print 9 digits below the evaluator's ~1e-16 absolute accuracy (54 of 3001
# rows moved, all |v| <= 7.8e-6 V, by <= 1e-14 V), and validate at 13.56 MHz,
# which also gained the filtered_vs_steady_state line.  The four design rows
# were re-recorded when a safeguarded secant replaced the bisection of the
# capacitance solve: it stops at the same 1e-9 bracket from another side, so
# tau moves in the 9th digit and the printed ripple reads 0.0999999999.  The
# analytic full-wave row moved once more (v_dc 0.741026387 -> 0.741026388)
# when a secant step landing on a bracket end stopped falling back to
# bisection: tau is 4.4e-10 above the bisection's, where it was 5.1e-10.
# "coeffs --k-max 8" and validate at 13.56 MHz were re-recorded when the
# quadrature began to take every harmonic from one node set and its phases
# from integers: only the printed quadrature errors moved, at roundoff
# (coeffs' abs_diff column, at most 3.6e-16 before and 8.3e-17 after).
GOLDEN = {
    ("sweep", "--fcut", "1e8:1e11:50:log", "--fc", "13.56e6"):
        "5803f9ea894bdac82ba6549db5c0361c6d728444fe34bb427882c0928b10a041",
    ("sweep", "--fcut", "1e8:1e11:50:log", "--fc", "915e6"):
        "8511e7097762eb3e8eafc67b6ea8006a1ba227607ebfef40c68911c83b8b458d",
    ("design", "--budget", "0.1", "--metric", "sampled", "--kind", "full"):
        "90403b86433250f2b12d527d7dafcd93ff9498ecc3baa6366ea05ee1b651f072",
    ("design", "--budget", "0.1", "--metric", "analytic", "--kind", "full"):
        "b451c9b2008a8569de9769d0a3fa9e3fad03605f573a71cea43656236815c7d6",
    ("design", "--budget", "0.1", "--metric", "sampled", "--kind", "half"):
        "b3e4b84da7266b22bc4f9c6b60bfa94bf919d39096a7db51a005727527ea751a",
    ("design", "--budget", "0.1", "--metric", "analytic", "--kind", "half"):
        "801e369de7c8d51570f372d4d7a90cffde8c37b555dd491dd906eaf5ab597323",
    ("trace", "--cap", "1e-10"):
        "d1fce3b4215e6c8431797ee23ffd06038d52cec37c0335bc2bb5b6082196e388",
    ("trace", "--kind", "half", "--fc", "13.56e6", "--cap", "1e-10",
     "--t", "1.234e-9:2.2e-7:3001"):
        "c158f5aad60022c2a7d734a9a67eba3cca91e4cc9933e5bbc166d9c2fec3fe86",
    ("coeffs", "--k-max", "8"):
        "032a702fc9ce2167408918fc2cbf5725bbafb9abf0217d1033a7a506e02a22c0",
    ("sweep", "--fcut", "1e8:1e11:50:log", "--format", "json"):
        "69ea3fb491f4e25552b3b1bea867869a5d97769bfd3d4123ddd8df9350cf2fb1",
    ("trace", "--cap", "1e-10", "--format", "json", "--t", "1.234e-9:2.2e-7:301"):
        "fd77670635b9ad3ee804e3e6965c2be38734c598c7ce7cbd91e0ed68cfd159b5",
    ("validate", "--fc", "13.56e6"):
        "de832deb7a571d36fa8e6461bcabe5b1bd10c90f8e9e174711951551108dbb98",
    # recorded before validate and multisine-a0 shared their quadratures, on
    # the cases where the sharing must not apply or must group spacings:
    # the probe's largest harmonic, 16, above k_max (its own projection) ...
    ("validate", "--k-max", "8"):
        "eff351297070988f4e979fa800bd883da7cd9eeff80fd44dbdb58750287c188f",
    # ... the probe's largest harmonic, 64, below k_max ...
    ("validate", "--k-max", "100", "--fc", "915e6"):
        "6c96bb949356c3a7130dec4e1d3dd73d32a7c7dc3406faecbe5dc9554e78f1be",
    # ... and a spacing grid taken by one array quadrature call
    ("multisine-a0", "--df", "9.15e6:4.575e8:5:log"):
        "5822bff7282285a929a1fca676218bb84c73a6ac54ed03ba380a26f23f0cee6d",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_output_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_validate_computes_each_distinct_quadrature_once(capsys, monkeypatch):
    counts = {"_harmonic_indices": 0, "_node_set": 0}
    for name in counts:
        original = getattr(rectenna.oracle, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(rectenna.oracle, name, counted)
    code, _, _ = run_cli(capsys, ["validate", "--fc", "13.56e6"])
    assert code == 0
    # each coefficient projection checks its harmonics once and builds one
    # node set.  Per kind: one projection over 0..64 that the coefficient,
    # sine and probe-reference checks share, one at refine 2, one at fc, and
    # one two-tone node set for all four spacings; unshared, these were 10
    # projections and 18 node sets
    assert counts == {"_harmonic_indices": 6, "_node_set": 8}
