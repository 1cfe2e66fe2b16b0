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


def test_bad_range_syntax_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--fcut", "1e8-1e11-20"])
    assert code == 2
    assert "error" in err


def test_bad_parameter_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["coeffs", "--amplitude", "-1"])
    assert code == 2
    assert "error" in err


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


EDGE_FLOATS = [-0.0, 5e-324, 1e308, 1.0, 1e16, 123456789.5]
CELLS = {
    "float": st.one_of(
        st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    ),
    "int": st.integers(-(2**63), 2**63),
    "bool": st.booleans(),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=40))
    return [f"c{j}" for j in range(len(kinds))], rows


@settings(max_examples=200, deadline=None)
@given(table=tables())
@example(table=(["a", "b"], [(v, i) for i, v in enumerate(EDGE_FLOATS)]))
@example(table=(["a", "b", "c"], []))
def test_emit_csv_matches_cell_by_cell_formatting(table):
    header, rows = table
    text = _emit_text(header, rows)
    assert text == _emit_reference(header, rows)
    if not rows:
        assert text == ",".join(header) + "\n"


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
    rows=st.integers(0, 40),
    width=st.integers(1, 4),
    data=st.data(),
)
def test_emit_takes_a_float_array_as_its_rows(rows, width, data):
    # a trace table arrives as an (N, width) array and must print exactly as
    # the same cells given as rows of Python floats
    values = data.draw(st.lists(CELLS["float"], min_size=rows * width, max_size=rows * width))
    table = np.array(values, dtype=float).reshape(rows, width)
    header = [f"c{j}" for j in range(width)]
    for output_format in ("csv", "json"):
        assert _emit_text(header, table, output_format) == _emit_text(
            header, table.tolist(), output_format
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


# stdout SHA-256 of each command, recorded before the FFT period-grid engine
# replaced the per-harmonic loop; later speed-ups must keep these bytes.  The
# 13.56 MHz sweep was re-recorded when its sampled ripple began to polish both
# extrema by Newton's method (coarse grid), which moved only that column.  The
# next three (a 3001-row trace on an unaligned window, a table with an int
# column, and JSON output) were recorded before CSV tables were built by one
# %-format pass.  The last two (a JSON trace, and validate at 13.56 MHz, whose
# sampled mean and golden-section search run the evaluator on 8192-point
# arrays and on scalars) were recorded before the trace table became an array
# and the Horner kernel began to reuse its buffers.  Two were re-recorded when
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
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_output_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
